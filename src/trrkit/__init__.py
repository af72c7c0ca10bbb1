"""Exact computation in the strata algebra of moduli of stable curves.

Subpackages cover: exact rational/polynomial arithmetic (numerics), stable
graph combinatorics (stablegraphs), the strata algebra's decorated graphs
and the forgetful pushforward (strata), Pixton's double ramification class
machinery (pixton), and the construction and scanning of topological
recursion relations (trr).  The error types and the worker pool that they and the CLI
share live in runtime, which imports nothing from trrkit.

The closed forms (the D coefficient, its scan, principal parts, the genus-7
patch) need only numerics, trr and runtime; stablegraphs, strata and pixton
load on the first call that runs the graph pipeline.
"""

__version__ = "0.1.0"
