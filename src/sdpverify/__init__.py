"""Robustness verification of small ReLU networks by semidefinite relaxation.

The pipeline: describe a network (`network`), box the reachable
activations (`bounds`), lift the verification problem to a positive
semidefinite program in one of several constraint variants (`sdpform`),
solve it with a primal-dual interior-point method (`solver`), and judge
the result (`analysis`).  `oracle` supplies exact margins for tiny
networks by branch enumeration, and `cli` ties everything into a command
line with verify / diagnose / sweep / compare / gen-fixtures commands.

The diagnostic angle: deep stacks of complementarity equalities squeeze
the feasible set onto the boundary of the cone, which starves
interior-point methods.  `build_strict_feasibility` measures the largest
inscribed ball, and the constraint variants trade a little relaxation
tightness for interior room.
"""

__version__ = "0.1.0"
