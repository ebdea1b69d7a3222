import dataclasses
import math
import os
import pathlib
import pickle
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinphoton import measurement as meas
from spinphoton import protocols as proto
from spinphoton import qstate as qs

from _oracles import outcomes_by_entry, total_variation

SQ = 1.0 / math.sqrt(2.0)


def bell_pol_state():
    regs = (qs.polarization(1), qs.polarization(2))
    return qs.StateVector(regs, np.array([0, SQ, SQ, 0]))  # (RL + LR)/√2


def rec(*photons, spin=None):
    return meas.OutcomeRecord(
        photons=tuple((i + 1, p) for i, p in enumerate(photons)), spin=spin
    )


def pol(name):
    return meas.PhotonOutcome(pol=name)


def spin_port_state():
    regs = (qs.spin(), qs.polarization(1), qs.path(1, ("C", "D")))
    amps = np.array([SQ, 0, 0, 0, 0, 0, 0, SQ])  # ↑R@C + ↓L@D
    return qs.StateVector(regs, amps), meas.MeasurementBases(pol={1: "RL"}, ports={1}, spin="UpDown")


def lost_state():
    regs = (qs.polarization(1), qs.path(1, ("C", "D")), qs.loss_flag(1))
    amps = np.zeros(8, dtype=complex)
    amps[0] = SQ  # R, C, Alive
    amps[1] = 0.5  # R, C, Lost
    amps[7] = 0.5  # L, D, Lost
    return qs.StateVector(regs, amps), meas.MeasurementBases(pol={1: "RL"}, ports={1})


def test_enumerate_circular_basis():
    dist = meas.enumerate_outcomes(
        bell_pol_state(), meas.MeasurementBases(pol={1: "RL", 2: "RL"})
    )
    assert dist[rec(pol("R"), pol("L"))] == pytest.approx(0.5)
    assert dist[rec(pol("L"), pol("R"))] == pytest.approx(0.5)
    assert len(dist) == 2
    assert dist.total() == pytest.approx(1.0)


def test_enumerate_linear_basis():
    # (RL+LR)/√2 = (HH+VV)/√2: perfectly correlated H/V clicks
    dist = meas.enumerate_outcomes(
        bell_pol_state(), meas.MeasurementBases(pol={1: "HV", 2: "HV"})
    )
    assert dist[rec(pol("H"), pol("H"))] == pytest.approx(0.5)
    assert dist[rec(pol("V"), pol("V"))] == pytest.approx(0.5)
    assert len(dist) == 2


def test_unmeasured_registers_are_traced_out():
    dist = meas.enumerate_outcomes(bell_pol_state(), meas.MeasurementBases(pol={1: "RL"}))
    assert dist[rec(pol("R"))] == pytest.approx(0.5)
    assert dist[rec(pol("L"))] == pytest.approx(0.5)


def test_spin_and_port_outcomes():
    dist = meas.enumerate_outcomes(*spin_port_state())
    up = meas.OutcomeRecord(((1, meas.PhotonOutcome(port="C", pol="R")),), spin="Up")
    assert dist[up] == pytest.approx(0.5)


def test_lost_photons_aggregate():
    # alive R@C with weight 1/2; lost amplitude spread over two microstates
    dist = meas.enumerate_outcomes(*lost_state())
    lost = meas.OutcomeRecord(((1, meas.PhotonOutcome(lost=True)),))
    assert dist[lost] == pytest.approx(0.5)
    assert len(dist) == 2


@st.composite
def _states_and_bases(draw):
    """A random normalized state, some of its amplitudes zero, over 1–3
    photons (pol, a path of 1–5 names, an optional loss flag) and an optional
    spin, its registers shuffled; and random bases on it, empty ones included."""
    n = draw(st.integers(1, 3))
    registers = [qs.spin()] if draw(st.booleans()) else []
    for pid in range(1, n + 1):
        names = draw(st.lists(st.sampled_from("ABCDE"), min_size=1, max_size=5, unique=True))
        registers += [qs.polarization(pid), qs.path(pid, names)]
        if draw(st.booleans()):
            registers.append(qs.loss_flag(pid))
    registers = draw(st.permutations(registers))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = math.prod(r.dim for r in registers)
    amps = (rng.normal(size=dim) + 1j * rng.normal(size=dim)) * (rng.random(dim) < 0.7)
    if not amps.any():
        amps[0] = 1.0
    photons = st.sets(st.integers(1, n))
    bases = meas.MeasurementBases(
        pol={pid: draw(st.sampled_from(("RL", "HV"))) for pid in draw(photons)},
        ports=draw(photons),
        spin=draw(st.sampled_from((None, "UpDown", "PlusMinus")))
        if qs.spin() in registers else None,
    )
    return qs.StateVector(tuple(registers), amps / np.linalg.norm(amps)), bases


@settings(max_examples=300, deadline=None)
@given(case=_states_and_bases())
def test_enumeration_matches_the_entrywise_oracle(case):
    state, bases = case
    fast, slow = meas.enumerate_outcomes(state, bases), outcomes_by_entry(state, bases)
    assert set(fast) == set(slow)
    for record, p in slow.items():
        assert abs(fast[record] - p) <= 1e-15


def test_nothing_measured_is_one_outcome_labelled_dash():
    dist = meas.enumerate_outcomes(bell_pol_state(), meas.MeasurementBases())
    assert list(dist.items()) == [(meas.OutcomeRecord(photons=()), pytest.approx(1.0))]
    assert str(next(iter(dist))) == "-"


def _no_work(*args, **kwargs):
    raise AssertionError("a basis was changed")


def test_ports_of_photons_without_a_path_register_are_refused(monkeypatch):
    # once read as port=None, and photon 2, named only in ports, printed as "-"
    monkeypatch.setattr(qs, "_basis_matrix", _no_work)
    bases = meas.MeasurementBases(pol={1: "HV"}, ports={1, 2})
    with pytest.raises(ValueError, match="no register path1 to measure"):
        meas.enumerate_outcomes(bell_pol_state(), bases)


@pytest.mark.parametrize(
    "bases,missing",
    [
        (meas.MeasurementBases(pol={1: "HV", 3: "RL"}), "pol3"),
        (meas.MeasurementBases(pol={1: "HV"}, spin="PlusMinus"), "spin0"),
    ],
    ids=["pol", "spin"],
)
def test_polarizations_or_a_spin_the_state_lacks_are_refused(bases, missing, monkeypatch):
    # once a bare KeyError from the lookup of the register's axis
    monkeypatch.setattr(qs, "_basis_matrix", _no_work)
    with pytest.raises(ValueError, match=f"no register {missing} to measure"):
        meas.enumerate_outcomes(bell_pol_state(), bases)


def test_lost_outcome_forbids_port():
    with pytest.raises(ValueError):
        meas.PhotonOutcome(port="C", lost=True)


def test_sample_is_deterministic_and_complete():
    s = bell_pol_state()
    bases = meas.MeasurementBases(pol={1: "RL", 2: "RL"})
    dist = meas.enumerate_outcomes(s, bases)
    counts = dist.sample(1000, seed=7)
    again = dist.sample(1000, seed=7)
    assert counts == again
    assert sum(counts.values()) == 1000
    other = dist.sample(1000, seed=8)
    assert other != counts


def test_sample_rejects_subnormalized_states():
    regs = (qs.polarization(1),)
    s = qs.StateVector(regs, np.array([0.5, 0.0]))
    bases = meas.MeasurementBases(pol={1: "RL"})
    with pytest.raises(ValueError, match="unit-norm") as from_state:
        outcomes_by_entry(s, bases).sample(10, seed=0)
    with pytest.raises(ValueError, match="unit-norm") as from_dist:
        meas.enumerate_outcomes(s, bases).sample(10, seed=0)
    assert str(from_state.value) == str(from_dist.value)


@pytest.mark.parametrize("shots", [1.5, 2.0, -1, 2**63, "10", True])
def test_sample_refuses_a_count_that_is_not_a_64_bit_count(shots):
    dist = meas.enumerate_outcomes(bell_pol_state(), meas.MeasurementBases(pol={1: "RL"}))
    with pytest.raises(ValueError, match=f"got {shots!r}$"):
        dist.sample(shots, seed=0)
    assert dist.sample(0, seed=0) == {}
    assert sum(dist.sample(np.int64(meas.MAX_SHOTS), seed=0).values()) == meas.MAX_SHOTS


@pytest.mark.parametrize("seed", [None, True, 1.0, "1", -1])
def test_sample_refuses_a_seed_that_is_not_a_non_negative_integer(seed):
    # identical seeds must give identical tables, so no draw falls back to OS entropy
    dist = meas.enumerate_outcomes(bell_pol_state(), meas.MeasurementBases(pol={1: "RL"}))
    refused = f"^seed must be a non-negative integer, got {re.escape(repr(seed))}$"
    with pytest.raises(ValueError, match=refused):
        dist.sample(3, seed=seed)
    with pytest.raises(ValueError, match=refused):
        dist._draw(3, seed, dist._rows())
    assert dist.sample(3, seed=np.int64(1)) == dist.sample(3, seed=1)
    assert sum(dist.sample(3, seed=2**70).values()) == 3


@pytest.mark.parametrize(
    "case",
    [
        lambda: (bell_pol_state(), meas.MeasurementBases(pol={1: "RL", 2: "RL"})),
        lambda: (bell_pol_state(), meas.MeasurementBases(pol={1: "HV", 2: "HV"})),
        lambda: (bell_pol_state(), meas.MeasurementBases(pol={1: "RL"})),
        spin_port_state,
        lost_state,
    ],
    ids=["bell-RL", "bell-HV", "traced", "spin-port", "lost"],
)
@pytest.mark.parametrize("seed", [0, 7, 123])
def test_distribution_sample_matches_sample_from_state(case, seed):
    state, bases = case()
    dist = meas.enumerate_outcomes(state, bases)
    counts = dist.sample(997, seed=seed)
    assert counts == outcomes_by_entry(state, bases).sample(997, seed=seed)
    assert list(counts) == sorted(counts, key=str)
    assert sum(counts.values()) == 997


def test_sampled_frequencies_approach_born_weights():
    s = bell_pol_state()
    bases = meas.MeasurementBases(pol={1: "HV", 2: "HV"})
    n = 200_000
    counts = meas.enumerate_outcomes(s, bases).sample(n, seed=123)
    empirical = {k: v / n for k, v in counts.items()}
    exact = meas.enumerate_outcomes(s, bases)
    assert total_variation(empirical, dict(exact)) < 0.01


def test_total_variation_bounds():
    a = {rec(pol("H")): 1.0}
    b = {rec(pol("V")): 1.0}
    assert total_variation(a, a) == 0.0
    assert total_variation(a, b) == pytest.approx(1.0)


def test_bases_validate_names():
    with pytest.raises(ValueError):
        meas.MeasurementBases(pol={1: "XY"})
    with pytest.raises(ValueError):
        meas.MeasurementBases(spin="Sideways")


# ---------------------------------------------------------------------------
# records hash their fields once, and stay sound as dict keys


def _click(port="C", pol="H", spin="Plus"):
    return meas.OutcomeRecord(
        photons=((1, meas.PhotonOutcome(port=port, pol=pol)), (2, meas.PhotonOutcome(lost=True))),
        spin=spin,
    )


def test_equal_records_built_apart_hash_equal():
    a, b = _click(), _click()
    assert a == b and a is not b and a.photons[0][1] is not b.photons[0][1]
    assert hash(a) == hash(b)
    assert {a: 0.5}[b] == 0.5
    # the values the frozen dataclasses give
    assert hash(a) == hash((a.photons, a.spin))
    click = a.photons[0][1]
    assert hash(click) == hash((click.port, click.pol, click.lost))


def test_replaced_records_hash_as_built():
    a = _click()
    b = dataclasses.replace(a, spin="Minus")
    assert b == _click(spin="Minus") and hash(b) == hash(_click(spin="Minus"))
    lost = dataclasses.replace(meas.PhotonOutcome(), lost=True)
    assert hash(lost) == hash(meas.PhotonOutcome(lost=True))
    with pytest.raises(ValueError, match="neither port nor polarization"):
        dataclasses.replace(a.photons[0][1], lost=True)


def test_records_keep_their_fields_and_text():
    assert [f.name for f in dataclasses.fields(meas.PhotonOutcome)] == ["port", "pol", "lost"]
    assert [f.name for f in dataclasses.fields(meas.OutcomeRecord)] == ["photons", "spin"]
    record = _click()
    assert str(record) == "1=C:H 2=lost spin=Plus"
    assert repr(record) == (
        "OutcomeRecord(photons=((1, PhotonOutcome(port='C', pol='H', lost=False)), "
        "(2, PhotonOutcome(port=None, pol=None, lost=True))), spin='Plus')"
    )
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.spin = "Minus"


_PICKLE_RECORD = """
import pickle, sys
from spinphoton import measurement as meas
record = meas.OutcomeRecord(photons=((1, meas.PhotonOutcome(port="C", pol="H")),), spin="Plus")
if sys.argv[1] == "dump":
    with open(sys.argv[2], "wb") as f:
        pickle.dump({record: 0.25}, f)
else:
    with open(sys.argv[2], "rb") as f:
        loaded = pickle.load(f)
    (key,) = loaded
    assert key == record and hash(key) == hash(record)
    assert loaded[record] == 0.25 and {record: 0.75}[key] == 0.75
    print("found")
"""


def test_a_pickled_record_is_found_under_another_hash_seed(tmp_path):
    # a hash kept from the first process would file the key under the
    # wrong string hashes in the second
    src = pathlib.Path(meas.__file__).resolve().parent.parent
    path = tmp_path / "records.pickle"
    outputs = []
    for step, seed in (("dump", "1"), ("load", "2")):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)}
        outputs.append(subprocess.run(
            [sys.executable, "-c", _PICKLE_RECORD, step, str(path)],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        ).stdout)
    assert outputs == ["", "found\n"]


def test_distribution_from_pairs_matches_the_constructor():
    records = [_click(spin=s) for s in ("Plus", "Minus")] + [_click(port="D")]
    probs = [0.5, 1e-16, 0.25]
    paired = meas.Distribution._from_pairs(records, probs)
    built = meas.Distribution(dict(zip(records, probs)))
    assert list(paired.items()) == list(built.items()) == [(records[0], 0.5), (records[2], 0.25)]


def test_record_refuses_a_photon_it_lacks():
    with pytest.raises(KeyError, match="no photon 3 in record"):
        _click().photon(3)


_LOAD_DISTRIBUTION = """
import pickle, sys
from spinphoton import protocols as proto
with open(sys.argv[1], "rb") as f:
    loaded = pickle.load(f)
fresh = proto.bsa(proto.BellState.PHI_MINUS.state((2, 5))).distribution
assert list(loaded.items()) == list(fresh.items())
for record in fresh:
    (key,) = [k for k in loaded if k == record]
    assert hash(key) == hash(record) and loaded[record] == fresh[key]
    assert all(hash(a) == hash(b) for (_, a), (_, b) in zip(key.photons, record.photons))
print("found", len(fresh))
"""


def test_a_pickled_distribution_is_found_under_other_hash_seeds(tmp_path):
    # pickled here, so each record is reduced to its fields in this process;
    # loaded under two seeds, of which at least one is not this process's
    dist = proto.bsa(proto.BellState.PHI_MINUS.state((2, 5))).distribution
    path = tmp_path / "distribution.pickle"
    path.write_bytes(pickle.dumps(dist))
    src = pathlib.Path(meas.__file__).resolve().parent.parent
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)}
        out = subprocess.run(
            [sys.executable, "-c", _LOAD_DISTRIBUTION, str(path)],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        ).stdout
        assert out == f"found {len(dist)}\n"
