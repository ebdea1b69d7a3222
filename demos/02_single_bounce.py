"""One bounce off the cavity entangles a photon with the resident spin.

Circular polarization selects whether the photon couples: for a photon
arriving from below, R couples to spin Up and L couples to spin Down.
Coupling reflects the photon (flipping its circular label); non-coupling
transmits it with a sign.  Starting from spin (Up+Down)/sqrt(2) the exit
port ends up perfectly correlated with the spin.
"""

import numpy as np

from spinphoton import measurement as meas
from spinphoton import protocols as proto
from spinphoton import qstate as qs
from spinphoton.cavity import InteractionModel

SQ = 1 / np.sqrt(2)
PORTS = ("In", "Refl", "Trans")

spin_amps = np.array([SQ, SQ])
photon = np.zeros((2, len(PORTS)))  # (pol, port)
photon[0, PORTS.index("In")] = 1.0  # R on In
before = qs.StateVector(
    (qs.spin(), qs.polarization(1), qs.path(1, PORTS)), np.multiply.outer(spin_amps, photon)
)
print("before:", qs.format_state(before))

# the bounce is the heralded spin preparation's one-step plan; the ideal
# pass needs no loss flag
state = proto.run_photons(
    spin_amps, [1.0, 0.0], (1,), ("In",), proto.SPIN_PREP_PLAN, InteractionModel.ideal(), PORTS
)
print("after: ", qs.format_state(state))
print()
print("spin Up  -> photon reflected (R coupled, label flipped to L)")
print("spin Down-> photon transmitted with a minus sign (uncoupled)")
print()

bases = meas.MeasurementBases(pol={}, ports=frozenset({1}), spin="UpDown")
print("port/spin correlations:")
for rec, p in meas.enumerate_outcomes(state, bases).items():
    print(f"  {rec}: {p:.3f}")
print()
print("reading the spin in the +/- basis instead erases the which-path")
print("record; conditioned on '+', the photon is left in a coherent port")
print("superposition:")
# the spin is the first register: '+' keeps (Up + Down)/sqrt(2) of the rest
up, down = state.amps.reshape(2, -1)
plus = qs.StateVector(state.registers[1:], (up + down) * SQ)
print("  " + qs.format_state(plus.normalized()))
