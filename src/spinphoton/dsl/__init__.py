"""Text format for tabletop circuits: parse, pretty-print, compile, run.

The compiler emits one plan, every photon's schedule, for the shared
executor :func:`spinphoton.protocols.run_photons`, which also runs the
built-in protocols: it applies the plan's spin blocks once per photon.
"""

from . import ast
from .compiler import CircuitError, CompiledCircuit, RunResult, compile_circuit
from .parser import ParseError, parse
from .printer import format_angle, pretty_print

__all__ = [
    "ast",
    "parse",
    "ParseError",
    "pretty_print",
    "format_angle",
    "compile_circuit",
    "CircuitError",
    "CompiledCircuit",
    "RunResult",
]
