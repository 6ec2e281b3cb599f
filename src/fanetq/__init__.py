"""fanetq: a desk-scale lab for aerial ad-hoc network connectivity.

Seeded FANET Dec-POMDP simulation, MAPPO training with classical or
quantum-core centralized critics, and estimators for the circuit
characterization metrics (entanglement capability, expressibility).
"""

from .env import ScenarioConfig, FanetEnv, init_world, env_step, observe_all, reward
from .qsim import VqcSpec, SpsaState, vqc_forward, spsa_gradient

__all__ = [
    "ScenarioConfig",
    "FanetEnv",
    "init_world",
    "env_step",
    "observe_all",
    "reward",
    "VqcSpec",
    "SpsaState",
    "vqc_forward",
    "spsa_gradient",
]

__version__ = "0.1.0"
