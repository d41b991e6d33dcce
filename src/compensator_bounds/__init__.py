"""Growth bounds for the compensator of [0,1]-bounded submartingales.

The package cross-validates three routes to the same quantity: a scalar
recursion whose fixed point bounds the compensator's growth, an exact
finite-horizon value iteration for the worst-case submartingale, and
direct simulation of the extremal chains, all glued together by a
shifted-argument inequality for expectations of increasing functions.

Each layer is its own module (``functions``, ``optimize``, ``shift``,
``recursion``, ``bellman``, ``chains``, ``cli``); import names from it.
"""

__version__ = "0.1.0"
