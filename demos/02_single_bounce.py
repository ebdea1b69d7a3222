"""One bounce off the cavity entangles a photon with the resident spin.

Circular polarization selects whether the photon couples: for a photon
arriving from below, R couples to spin Up and L couples to spin Down.
Coupling reflects the photon (flipping its circular label); non-coupling
transmits it with a sign.  Starting from spin (Up+Down)/sqrt(2) the exit
port ends up perfectly correlated with the spin.
"""

import numpy as np

from spinphoton import measurement as meas
from spinphoton import qstate as qs
from spinphoton.cavity import InteractionModel, one_sided_operator

SQ = 1 / np.sqrt(2)

spin_reg, pol_reg = qs.spin(), qs.polarization(1)
path_reg = qs.path(1, ("In", "Refl", "Trans"))

spin = qs.from_amplitudes(spin_reg, [SQ, SQ])
photon = qs.tensor(
    qs.basis_state([pol_reg], ["R"]),
    qs.basis_state([path_reg], ["In"]),
)
state = qs.tensor(spin, photon)
print("before:", qs.format_state(state))

# the ideal pass needs no loss-flag register
bounce = one_sided_operator(
    InteractionModel.ideal(),
    pol=pol_reg,
    path=path_reg,
    spin=spin_reg,
    in_path="In",
    reflect_path="Refl",
    transmit_path="Trans",
)
state = qs.apply(bounce, state)
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
plus = qs.change_basis(state, (qs.RegisterKind.SPIN, 0), "PlusMinus")
plus = qs.collapse(plus, (qs.RegisterKind.SPIN, 0), "Plus", check=False)
print("  " + qs.format_state(plus.normalized()))
