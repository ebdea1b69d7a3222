"""Tabletop circuits as text: parse, inspect the plan, run, diagnose.

The circuit language covers the whole optical table - splitters, plates,
mirrors, the cavity - plus photon/spin preparation and measurement choices.
Compilation turns a file into one operator schedule that every photon runs,
under any interaction model.
"""

from spinphoton import circuits
from spinphoton.dsl import ParseError, compile_circuit, parse, pretty_print

source = circuits.load("cnot")
print("bundled gate circuit:")
print(source)

circ = parse(source)
compiled = compile_circuit(circ)
print(f"compiled schedule, run by every photon {compiled.photon_ids}:")
for op, ports, param in compiled.plan:
    extra = f" param={param:.4f}" if param else ""
    print(f"  {op:<12} ports={ports}{extra}")

print("\nrun it:")
result = compiled.run()
for rec in sorted(result.distribution, key=str):
    print(f"  {rec}: {result.distribution[rec]:.3f}")

print("\nthe canonical printer normalises formatting:")
print(pretty_print(circ).splitlines()[0])

print("\nerrors point at the offending token:")
broken = "component gate cpbs in=[A, D] out=[C B]\n"
try:
    parse(broken)
except ParseError as e:
    print(f"  {e}")
    print("  " + broken.strip())
    print("  " + " " * (e.col - 1) + "^")
