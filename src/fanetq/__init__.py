"""fanetq: a desk-scale lab for aerial ad-hoc network connectivity.

Seeded FANET Dec-POMDP simulation, MAPPO training with classical or
quantum-core centralized critics, and estimators for the circuit
characterization metrics (entanglement capability, expressibility).
"""

__version__ = "0.1.0"
