"""Streaming photons through one gate grows GHZ states.

Every photon of a train interacts with the same spin; reading the spin out
in the +/- basis afterwards heralds one of two n-photon GHZ states, each
with probability 1/2.  A deterministic spin precession between photons
(the drift knob) degrades the branch balance exactly as expected.  A
realistic cavity makes every photon's herald cost something: the success
and the fidelity fall with the number of photons, the faster the lower the
transmission contrast.
"""

import numpy as np

from spinphoton import protocols as proto
from spinphoton import qstate as qs
from spinphoton.cavity import ContrastParams, InteractionModel, transmission_contrast

for n in (2, 3, 4, 5):
    results = proto.ghz(n)
    plus = results["Plus"]
    print(f"n={n}: spin '+' heralds p={plus.success_probability:.3f}, "
          f"fidelity {plus.fidelity:.3f}")
    print(f"   {qs.format_state(plus.state)}")

print()
print("with an inter-photon spin drift of 0.4 rad the two terms pick up a")
print("relative phase and the heralded states are no longer GHZ:")
for branch, res in sorted(proto.ghz(3, spin_phase_drift=0.4).items()):
    amps = res.state.amps
    big = np.flatnonzero(np.abs(amps) > 1e-9)
    ratio = amps[big[-1]] / amps[big[0]]
    print(f"  branch {branch:>5}: p={res.success_probability:.3f}, "
          f"term ratio {ratio:+.3f} (|ratio|={abs(ratio):.3f})")
print()
print("the magnitude stays 1 - drift is a coherent error, and the heralded")
print("states' overlap with the true GHZ targets drops accordingly:")
for branch, res in sorted(proto.ghz(3, spin_phase_drift=0.4).items()):
    print(f"  branch {branch:>5}: GHZ fidelity {res.fidelity:.4f}")

print()
print("with a realistic cavity each photon's herald costs something; the")
print("success and the GHZ fidelity of each branch against n and the")
print("transmission contrast D = (Q/Q0)^2 [1 - (1 + F_P)^-2]:")
for params in (ContrastParams(0.95, 20.0), ContrastParams(0.8, 6.0), ContrastParams(0.6, 2.0)):
    model = InteractionModel.from_contrast(params)
    print(f"  D = {transmission_contrast(params):.3f}  "
          f"((Q/Q0)^2 = {params.q_ratio_sq}, F_P = {params.purcell})")
    print("      n   success +  fidelity +   success -  fidelity -")
    for n in (2, 4, 8, 12):
        out = proto.ghz(n, model)
        plus, minus = out["Plus"], out["Minus"]
        print(f"    {n:3d}   {plus.success_probability:9.4f}  {plus.fidelity:10.4f}"
              f"   {minus.success_probability:9.4f}  {minus.fidelity:10.4f}")
