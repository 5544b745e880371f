"""Entropy-dynamics tooling for verifiable-reward RL.

Data selection by uncertainty and diversity, trajectory entropy-dynamics
similarity, the binary alignment reward, entropy-regularization baselines,
and a deterministic tabular policy-gradient testbed with trace and metrics
file formats plus a command-line front end. Import from the submodules
(``heal.eda``, ``heal.dynamics``, ``heal.trace_io``, ``heal.simulator``, ...).
"""

__version__ = "0.1.0"
