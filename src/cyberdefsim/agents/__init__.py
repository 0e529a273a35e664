from .common import HyperParams, ReplayBuffer, advantage, epsilon

__all__ = ["HyperParams", "ReplayBuffer", "advantage", "epsilon"]
