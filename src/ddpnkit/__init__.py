"""Heteroscedastic count regression with the Double Poisson distribution.

Each name lives in one module and is read from it (ddpnkit.network.train,
ddpnkit.ensemble.member_heads, ...). Importing the package runs no module,
so a CLI command executes only the modules it uses.
"""

__version__ = "0.1.0"
