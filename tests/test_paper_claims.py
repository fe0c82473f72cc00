"""The paper's leakage claims as properties of sweeps over the domain.

The acceptance criteria check the abstract's claims at a few grid points;
these derandomized properties check two of them on whole sweeps drawn
from the declared domain, through ``cli.run_sweep``:

* coherent states are immune to premodulation leakage: with
  v_s = v_es = 1, the rate does not depend on eta_e;
* multimode leakage only hurts: the rate does not increase with k.

Collective DR is left out of both: its rates come from the
entanglement-based model, whose limit offsets move them by up to 1e-3
bit (``TestPremodDrNoise`` in ``test_keyrate.py``).
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from cvleak.cli import SweepSpec, run_sweep
from cvleak.scenarios import (
    ChannelModel,
    MultimodeLeakageScenario,
    PremodLeakageScenario,
    ProtocolChoice,
)

PROTOCOLS = st.sampled_from([ProtocolChoice("RR", "individual", 1.0),
                             ProtocolChoice("DR", "individual", 1.0),
                             ProtocolChoice("RR", "collective", 0.95)])
CLAIM_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                          database=None)


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(
        lambda e: 10.0 ** e)


def _channel(protocol, eta, epsilon):
    if protocol.attack == "individual":
        epsilon = 0.0
    return ChannelModel(eta=eta, epsilon=epsilon)


def _rates(scenario, channel, protocol, spec):
    return [row["rate"] for row in run_sweep(scenario, channel, protocol,
                                             spec)]


@CLAIM_SETTINGS
@given(protocol=PROTOCOLS, v_m=_log_uniform(1e-2, 1e5),
       eta=_log_uniform(1e-3, 1.0), epsilon=st.floats(0.0, 0.1),
       eta_e_start=st.floats(1e-3, 0.99))
def test_coherent_states_are_immune_to_premodulation_leakage(
        protocol, v_m, eta, epsilon, eta_e_start):
    scenario = PremodLeakageScenario(v_s=1.0, v_m=v_m, eta_e=1.0, v_es=1.0)
    spec = SweepSpec(axis="eta_e", start=eta_e_start, stop=1.0, steps=6)
    rates = _rates(scenario, _channel(protocol, eta, epsilon), protocol,
                   spec)
    assert max(rates) - min(rates) <= 1e-12


@CLAIM_SETTINGS
@given(protocol=PROTOCOLS, v_s=_log_uniform(1e-2, 1.0),
       v_m=_log_uniform(1e-1, 1e4), eta=_log_uniform(1e-2, 1.0),
       epsilon=st.floats(0.0, 0.05), n_modes=st.integers(1, 3),
       k_stop=st.floats(0.1, 5.0))
def test_multimode_leakage_only_hurts(protocol, v_s, v_m, eta, epsilon,
                                      n_modes, k_stop):
    scenario = MultimodeLeakageScenario(v_s=v_s, v_m=v_m, k=0.0,
                                        leakage_variances=(v_s,) * n_modes)
    spec = SweepSpec(axis="k", start=0.0, stop=k_stop, steps=6)
    rates = _rates(scenario, _channel(protocol, eta, epsilon), protocol,
                   spec)
    for before, after in zip(rates, rates[1:]):
        assert after <= before + 1e-12 * max(1.0, abs(before))
