"""Text format for tabletop circuits: parse, pretty-print, compile, run.

The compiler emits each photon's schedule as steps for the shared executor,
:func:`spinphoton.protocols.run_plan`, which also runs the built-in protocols.
"""

from . import ast
from .compiler import CircuitError, CompiledCircuit, RunResult, Step, compile_circuit
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
    "Step",
]
