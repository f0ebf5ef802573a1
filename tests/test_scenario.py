"""Tests for the multi-emitter scenario library (repro.scenario).

Covers the scenario layer itself (config round trips, oversampling,
bench integration, per-emitter probes) plus the correctness fixes that
shipped with it: forked per-emitter streams, the explicit power-scaling
convention, the importance-sampling validity gate, and the fading
channel's edge cases (tail truncation, flat fading, Rician
normalization, Jakes-Doppler trajectories).
"""

import numpy as np
import pytest

from repro import obs
from repro.channel.fading import FadingChannel
from repro.channel.interference import InterferenceScenario
from repro.channel.streams import fork_stream
from repro.core.sweep import ParameterSweep
from repro.core.testbench import TestbenchConfig, WlanTestbench
from repro.rf.signal import Signal
from repro.scenario import (
    BluetoothFhEmitter,
    MicrowaveOvenEmitter,
    PRESETS,
    Scenario,
    WlanEmitter,
    preset_names,
)
from repro.scenario.emitters import (
    active_power_watts,
    reference_power_watts,
    scale_to_excess,
)


def _burst(n=4096, seed=0):
    rng = np.random.default_rng(seed)
    return Signal(np.exp(2j * np.pi * rng.random(n)), 80e6)


class TestEmitterStreamForking:
    """Satellite 1: per-emitter streams are forked, never the caller's."""

    def test_scenario_apply_never_advances_caller_rng(self):
        rng = np.random.default_rng(3)
        wanted = _burst()
        state = rng.bit_generator.state
        Scenario.preset("hostile-coexistence").apply(wanted, rng)
        assert rng.bit_generator.state == state

    def test_legacy_interference_never_advances_caller_rng(self):
        rng = np.random.default_rng(3)
        wanted = _burst()
        state = rng.bit_generator.state
        InterferenceScenario.adjacent().apply(wanted, rng)
        assert rng.bit_generator.state == state

    def test_wanted_path_invariant_to_extra_emitters(self):
        """Adding negligible emitters must not move any wanted-path draw.

        Both scenarios resolve to the same oversampling, and -400 dB
        emitter amplitudes vanish below float64 resolution, so the only
        way the measurements could differ is an emitter consuming the
        packet stream — the pre-fix bug.
        """
        def measure(emitters):
            cfg = TestbenchConfig(
                rate_mbps=6,
                psdu_bytes=20,
                snr_db=0.0,
                scenario=Scenario(emitters=emitters),
            )
            return WlanTestbench(cfg).measure_ber(n_packets=3, seed=11)

        lone = measure([WlanEmitter(offset_channels=0, excess_db=-400.0)])
        crowd = measure([
            WlanEmitter(offset_channels=0, excess_db=-400.0),
            BluetoothFhEmitter(excess_db=-400.0, slot_s=40e-6,
                               burst_s=25e-6),
            MicrowaveOvenEmitter(excess_db=-400.0, period_s=200e-6),
        ])
        assert lone.ber > 0  # the comparison has to bite on something
        assert lone.bit_errors == crowd.bit_errors
        assert lone.bits_total == crowd.bits_total

    def test_fork_stream_children_are_distinct_and_stable(self):
        rng = np.random.default_rng(9)
        state = rng.bit_generator.state
        first = fork_stream(rng, 0).random(4)
        second = fork_stream(rng, 1).random(4)
        again = fork_stream(rng, 0).random(4)
        assert not np.allclose(first, second)
        assert np.array_equal(first, again)
        assert rng.bit_generator.state == state

    def test_manifest_records_emitter_scheme(self):
        manifest = obs.build_manifest(seed=0).as_dict()
        assert manifest["emitter_seeding"] == "emitter-fork-v1"


class TestPowerConventions:
    """Satellite 2: the scaling convention is explicit and consistent."""

    def test_active_vs_average_on_gated_signal(self):
        x = np.ones(1000, dtype=complex)
        x[500:] = 0.0  # 50% duty: conventions differ by exactly 3 dB
        assert active_power_watts(x) == pytest.approx(1.0)
        assert reference_power_watts(x, "active") == pytest.approx(1.0)
        assert reference_power_watts(x, "average") == pytest.approx(0.5)

    def test_unknown_convention_rejected(self):
        with pytest.raises(ValueError, match="convention"):
            reference_power_watts(np.ones(4, complex), "rms")

    def test_scale_to_excess_is_exact_per_convention(self):
        rng = np.random.default_rng(0)
        x = np.zeros(4096, dtype=complex)
        x[: 1024] = np.exp(2j * np.pi * rng.random(1024))  # 25% duty
        for convention in ("active", "average"):
            scaled = scale_to_excess(x, 1.0, 7.0, convention)
            measured = reference_power_watts(scaled, convention)
            assert 10 * np.log10(measured) == pytest.approx(7.0, abs=1e-9)

    def test_bursty_emitter_hits_configured_excess(self):
        """A duty-cycled emitter's *burst* power sits at excess_db.

        Under the pre-fix full-window convention a 50%-duty burst came
        out 3 dB hot during its on-time; the active convention pins the
        on-air power itself.
        """
        wanted = _burst(1 << 15, seed=1)
        reference = reference_power_watts(wanted.samples, "active")
        emitter = MicrowaveOvenEmitter(
            excess_db=3.0, period_s=200e-6, duty=0.5
        )
        out = emitter.generate(
            wanted.samples.size, 80e6, reference,
            np.random.default_rng(0),
        ).samples
        burst_db = 10 * np.log10(active_power_watts(out) / reference)
        window_db = 10 * np.log10(
            np.mean(np.abs(out) ** 2) / reference
        )
        assert burst_db == pytest.approx(3.0, abs=0.05)
        # The two conventions genuinely disagree on this waveform (by
        # the ~3 dB duty factor), so the choice above is load-bearing.
        assert burst_db - window_db == pytest.approx(3.0, abs=0.3)

    def test_scenario_mixes_per_convention_references(self):
        wanted = _burst(1 << 14, seed=2)
        scenario = Scenario(emitters=[
            MicrowaveOvenEmitter(excess_db=0.0, period_s=200e-6,
                                 duty=0.5, power_convention="active"),
            MicrowaveOvenEmitter(excess_db=0.0, period_s=200e-6,
                                 duty=0.5, power_convention="average"),
        ])
        rng = np.random.default_rng(5)
        mixed = scenario.apply(wanted, rng)
        assert mixed.samples.shape == wanted.samples.shape
        # Different conventions -> different scales for an identical
        # seed/waveform; the "average" copy is the hotter one (its
        # on-air power compensates the off-time).
        active_ref = reference_power_watts(wanted.samples, "active")
        a = scenario.emitters[0].generate(
            wanted.samples.size, 80e6, active_ref, fork_stream(rng, 0)
        )
        b = scenario.emitters[1].generate(
            wanted.samples.size, 80e6,
            reference_power_watts(wanted.samples, "average"),
            fork_stream(rng, 0),
        )
        assert active_power_watts(b.samples) > active_power_watts(a.samples)


class TestIsGating:
    """Satellite 3: importance sampling refuses non-AWGN error events."""

    def _bench(self, **channel):
        return WlanTestbench(TestbenchConfig(
            rate_mbps=6, psdu_bytes=20, snr_db=10.0, **channel
        ))

    def test_is_raises_with_scenario_emitters(self):
        bench = self._bench(scenario=Scenario.preset("co-channel"))
        with pytest.raises(ValueError, match="non-AWGN emitters"):
            bench.measure_ber(n_packets=1, estimator="is")

    def test_is_raises_with_scenario_fading(self):
        bench = self._bench(scenario=Scenario.preset("indoor-fading"))
        with pytest.raises(ValueError, match="fading"):
            bench.measure_ber(n_packets=1, estimator="is")

    def test_is_raises_with_bench_fading(self):
        bench = self._bench(scenario=Scenario(fading=FadingChannel()))
        with pytest.raises(ValueError, match="fading"):
            bench.measure_ber(n_packets=1, estimator="is")

    def test_is_raises_with_legacy_interference(self):
        bench = self._bench(interference=InterferenceScenario.adjacent())
        with pytest.raises(ValueError, match="interference"):
            bench.measure_ber(n_packets=1, estimator="is")

    def test_is_error_names_the_fallback(self):
        bench = self._bench(scenario=Scenario.preset("co-channel"))
        with pytest.raises(ValueError, match="estimator='mc'"):
            bench.measure_ber(n_packets=1, estimator="is")

    def test_trivial_scenario_keeps_is_valid(self):
        bench = self._bench(scenario=Scenario(name="empty"))
        meas = bench.measure_ber(n_packets=1, estimator="is", seed=0)
        assert meas.estimator == "is"

    def test_auto_sweep_falls_back_to_mc(self):
        """At a deep point auto picks IS — unless a scenario is active."""
        def plan(**channel):
            sweep = ParameterSweep(
                base_config=TestbenchConfig(
                    rate_mbps=6, psdu_bytes=20, **channel
                ),
                parameter="snr_db",
                values=[20.0],
                n_packets=1,
                estimator="auto",
            )
            return sweep._point_estimator(sweep._configured(20.0))

        assert plan()[0] == "is"
        assert plan(scenario=Scenario.preset("co-channel"))[0] == "mc"
        assert plan(scenario=Scenario.preset("indoor-fading"))[0] == "mc"
        assert plan(scenario=Scenario(fading=FadingChannel()))[0] == "mc"

    def test_auto_sweep_runs_clean_under_scenario(self):
        sweep = ParameterSweep(
            base_config=TestbenchConfig(
                rate_mbps=6, psdu_bytes=20,
                scenario=Scenario.preset("co-channel"),
            ),
            parameter="snr_db",
            values=[18.0, 20.0],
            n_packets=1,
            estimator="auto",
        )
        result = sweep.run()
        assert all(
            getattr(p.measurement, "estimator", "mc") == "mc"
            for p in result.points
        )


class TestFadingEdgeCases:
    """Satellite 4: FadingChannel corner behavior."""

    def test_convolution_tail_truncated(self):
        rng = np.random.default_rng(0)
        sig = _burst(2048)
        out = FadingChannel(rms_delay_spread_s=150e-9).process(sig, rng)
        assert out.samples.size == sig.samples.size

    def test_zero_delay_spread_is_flat(self):
        ch = FadingChannel(rms_delay_spread_s=0.0)
        rng = np.random.default_rng(1)
        taps = ch.realize(20e6, rng)
        assert taps.size == 1
        sig = _burst(512)
        out = FadingChannel(rms_delay_spread_s=0.0).process(
            sig, np.random.default_rng(1)
        )
        np.testing.assert_allclose(out.samples, taps[0] * sig.samples)

    def test_normalized_realization_has_unit_power(self):
        ch = FadingChannel(rms_delay_spread_s=100e-9)
        rng = np.random.default_rng(2)
        for _ in range(5):
            taps = ch.realize(20e6, rng)
            assert np.sum(np.abs(taps) ** 2) == pytest.approx(1.0)

    def test_rician_k_normalization(self):
        """The K-factor splits power, it must not add any.

        Unnormalized ensemble power stays 1 for any K, and at a huge K
        the first tap collapses onto the deterministic LOS amplitude.
        """
        rng = np.random.default_rng(3)
        ch = FadingChannel(
            rms_delay_spread_s=50e-9, rice_factor_db=6.0, normalize=False
        )
        total = np.mean([
            np.sum(np.abs(ch.realize(20e6, rng)) ** 2)
            for _ in range(4000)
        ])
        assert total == pytest.approx(1.0, rel=0.05)
        hard = FadingChannel(
            rms_delay_spread_s=50e-9, rice_factor_db=80.0, normalize=False
        )
        from repro.channel.fading import exponential_power_delay_profile

        p0 = exponential_power_delay_profile(50e-9, 20e6)[0]
        taps = hard.realize(20e6, np.random.default_rng(4))
        assert abs(taps[0]) == pytest.approx(np.sqrt(p0), rel=1e-3)

    def test_realize_deterministic_under_spawned_seeds(self):
        seq = np.random.SeedSequence(42)
        a, b = (np.random.default_rng(c) for c in seq.spawn(2))
        again_a, _ = (
            np.random.default_rng(c)
            for c in np.random.SeedSequence(42).spawn(2)
        )
        ch = FadingChannel(rms_delay_spread_s=100e-9)
        first = ch.realize(20e6, a)
        np.testing.assert_array_equal(first, ch.realize(20e6, again_a))
        assert not np.allclose(first, ch.realize(20e6, b))

    def test_zero_doppler_keeps_block_static_path(self):
        sig = _burst(1024)
        static = FadingChannel(rms_delay_spread_s=100e-9)
        taps = static.realize(sig.sample_rate, np.random.default_rng(7))
        expected = np.convolve(sig.samples, taps)[: sig.samples.size]
        out = static.process(sig, np.random.default_rng(7))
        np.testing.assert_allclose(out.samples, expected)

    def test_time_varying_requires_positive_doppler(self):
        ch = FadingChannel()
        with pytest.raises(ValueError, match="max_doppler_hz"):
            ch.realize_time_varying(64, 20e6, np.random.default_rng(0))
        with pytest.raises(ValueError, match="n_sinusoids"):
            FadingChannel(max_doppler_hz=30.0, n_sinusoids=0)

    def test_doppler_taps_have_unit_expected_power(self):
        ch = FadingChannel(rms_delay_spread_s=100e-9, max_doppler_hz=200.0)
        rng = np.random.default_rng(8)
        power = np.mean([
            np.sum(np.abs(ch.realize_time_varying(64, 20e6, rng)) ** 2,
                   axis=0).mean()
            for _ in range(800)
        ])
        assert power == pytest.approx(1.0, rel=0.05)

    def test_doppler_process_preserves_length_and_varies_in_time(self):
        sig = _burst(4096)
        ch = FadingChannel(
            rms_delay_spread_s=100e-9, max_doppler_hz=2000.0
        )
        out = ch.process(sig, np.random.default_rng(9))
        assert out.samples.size == sig.samples.size
        gain = np.abs(out.samples / sig.samples)
        # A genuinely time-varying channel: the envelope gain drifts
        # across the window far more than any block-static draw could.
        assert gain[:256].mean() != pytest.approx(
            gain[-256:].mean(), rel=1e-6
        )


class TestScenarioConfig:
    def test_round_trip(self):
        for name in preset_names():
            scenario = Scenario.preset(name)
            rebuilt = Scenario.from_config(scenario.to_config())
            assert rebuilt.to_config() == scenario.to_config()

    def test_from_json(self):
        import json

        scenario = Scenario.from_json(json.dumps(PRESETS["co-channel"]))
        assert scenario.name == "co-channel"
        assert scenario.emitters[0].offset_channels == 0

    def test_unknown_emitter_type_raises(self):
        with pytest.raises(ValueError, match="unknown emitter type"):
            Scenario.from_config(
                {"emitters": [{"type": "zigbee"}]}
            )

    def test_unknown_emitter_key_raises(self):
        with pytest.raises(ValueError, match="emitter keys"):
            Scenario.from_config(
                {"emitters": [{"type": "wlan", "chanel": 1}]}
            )

    def test_unknown_scenario_key_raises(self):
        with pytest.raises(ValueError, match="scenario keys"):
            Scenario.from_config({"emiters": []})

    def test_unknown_fading_key_raises(self):
        with pytest.raises(ValueError, match="fading keys"):
            Scenario.from_config({"fading": {"doppler": 30.0}})

    @pytest.mark.parametrize("emitter, match", [
        ({"type": "wlan", "rate_mbps": 7}, "rate_mbps"),
        ({"type": "wlan", "psdu_bytes": 0}, "psdu_bytes"),
        ({"type": "wlan", "psdu_bytes": 4096}, "psdu_bytes"),
        ({"type": "wlan", "timing_jitter_samples": -1}, "timing_jitter"),
        ({"type": "wlan", "power_convention": "peak"}, "convention"),
        ({"type": "bluetooth", "slot_s": 0.0}, "slot_s"),
        ({"type": "bluetooth", "burst_s": -1e-6}, "burst_s"),
        ({"type": "bluetooth", "power_convention": "peak"}, "convention"),
        ({"type": "microwave", "period_s": 0.0}, "period_s"),
        ({"type": "microwave", "duty": 0.0}, "duty"),
        ({"type": "microwave", "duty": 1.5}, "duty"),
        ({"type": "microwave", "power_convention": "peak"}, "convention"),
    ])
    def test_bad_emitter_raises_before_any_packet(
        self, monkeypatch, emitter, match
    ):
        def no_packets(*args, **kwargs):
            raise AssertionError("a packet ran before the config check")

        monkeypatch.setattr(WlanTestbench, "run_packet_batch", no_packets)
        with pytest.raises(ValueError, match=match):
            scenario = Scenario.from_config({"emitters": [emitter]})
            WlanTestbench(TestbenchConfig(scenario=scenario)).measure_ber(
                n_packets=1, seed=0
            )

    @pytest.mark.parametrize("fading, match", [
        ({"n_sinusoids": 0}, "n_sinusoids"),
        ({"rms_delay_spread_s": -1e-9}, "rms_delay_spread_s"),
        ({"max_doppler_hz": -1.0}, "max_doppler_hz"),
    ])
    def test_bad_fading_raises_when_built(self, fading, match):
        with pytest.raises(ValueError, match=match):
            Scenario.from_config({"fading": fading})

    @pytest.mark.parametrize("kwargs, match", [
        ({"emitters": [object()]}, "emitter"),
        ({"emitters": [WlanEmitter(), "wlan"]}, "emitter"),
        ({"fading": "x"}, "fading"),
        ({"fading": {"max_doppler_hz": 30.0}}, "fading"),
        ({"emitters": [object()], "fading": "x"}, "emitter"),
    ])
    def test_bad_scenario_raises_when_built(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            Scenario(**kwargs)

    def test_unknown_preset_raises(self):
        with pytest.raises(ValueError, match="preset"):
            Scenario.preset("cafeteria")

    def test_required_oversample_matches_legacy_rule(self):
        for k in (1, 2, 3):
            scenario = Scenario(emitters=[WlanEmitter(offset_channels=k)])
            assert scenario.required_oversample() == 2 * (k + 1)
        assert Scenario(
            emitters=[WlanEmitter(offset_channels=0)]
        ).required_oversample() == 2
        assert Scenario().required_oversample() == 1
        assert Scenario().is_trivial

    def test_wlan_emitter_is_the_legacy_source(self):
        emitter = WlanEmitter(offset_channels=1, excess_db=16.0)
        paper = InterferenceScenario.adjacent()
        assert isinstance(paper, Scenario)
        assert paper.emitters == [emitter]
        legacy = paper.emitters[0]
        rng_kwargs = dict(
            n_samples=2048, sample_rate=80e6, wanted_power_watts=1.0
        )
        np.testing.assert_array_equal(
            emitter.generate(rng=np.random.default_rng(0),
                             **rng_kwargs).samples,
            legacy.generate(rng=np.random.default_rng(0),
                            **rng_kwargs).samples,
        )


class TestScenarioBench:
    def test_adjacent_scenario_bit_identical_to_legacy(self):
        """Acceptance: the paper's +16 dB point via configs == legacy."""
        def measure(**channel):
            cfg = TestbenchConfig(rate_mbps=36, psdu_bytes=60,
                                  snr_db=14.0, **channel)
            return WlanTestbench(cfg).measure_ber(n_packets=4, seed=1)

        legacy = measure(interference=InterferenceScenario.adjacent())
        mixed = measure(scenario=Scenario.preset("adjacent-16db"))
        assert legacy.ber > 0  # the interferer must actually bite
        assert legacy.bit_errors == mixed.bit_errors
        assert legacy.bits_total == mixed.bits_total

    def test_oversample_follows_scenario(self):
        cfg = TestbenchConfig(
            rate_mbps=6, snr_db=10.0,
            scenario=Scenario.preset("non-adjacent-32db"),
        )
        assert WlanTestbench(cfg).oversample == 6

    def test_frontend_rejects_too_wide_scenario(self):
        from repro.rf.frontend import FrontendConfig

        with pytest.raises(ValueError, match="envelope"):
            TestbenchConfig(
                rate_mbps=6,
                thermal_floor=True,
                frontend=FrontendConfig(),
                input_level_dbm=-60.0,
                scenario=Scenario(
                    emitters=[WlanEmitter(offset_channels=4, excess_db=16.0)]
                ),
            )

    def test_frontend_rejects_non_adjacent_shorthand(self):
        """The envelope check covers the paper constructors at build time."""
        from repro.rf.frontend import FrontendConfig

        with pytest.raises(ValueError, match="envelope"):
            TestbenchConfig(
                frontend=FrontendConfig(),
                interference=InterferenceScenario.non_adjacent(),
            )

    def test_envelope_check_fires_in_sweep_point_build(self):
        from repro.rf.frontend import FrontendConfig

        sweep = ParameterSweep(
            base_config=TestbenchConfig(
                frontend=FrontendConfig(sample_rate_in=120e6),
                interference=InterferenceScenario.non_adjacent(),
            ),
            parameter="frontend.sample_rate_in",
            values=[80e6],
        )
        with pytest.raises(ValueError, match="envelope"):
            sweep._configured(80e6)

    def test_interference_and_scenario_together_raise(self):
        """One channel per config: the two keywords cannot be combined."""
        with pytest.raises(ValueError, match="interference=.*scenario="):
            TestbenchConfig(
                interference=InterferenceScenario.adjacent(),
                scenario=Scenario.preset("adjacent-16db"),
            )

    def test_interference_keyword_lands_in_scenario(self):
        from dataclasses import asdict, replace

        paper = InterferenceScenario.adjacent()
        cfg = TestbenchConfig(snr_db=10.0, interference=paper)
        assert cfg.scenario is paper
        assert "interference" not in asdict(cfg)
        moved = replace(cfg, snr_db=12.0)
        assert moved.scenario is paper
        assert obs.config_key(cfg) == obs.config_key(
            TestbenchConfig(snr_db=10.0, scenario=paper)
        )

    def test_per_emitter_probe_taps(self):
        previous = obs.set_probes(
            obs.ProbeRegistry(obs.probe_preset("basic"))
        )
        try:
            cfg = TestbenchConfig(
                rate_mbps=6, psdu_bytes=20, snr_db=12.0,
                scenario=Scenario.preset("hostile-coexistence"),
            )
            WlanTestbench(cfg).measure_ber(n_packets=1, seed=0)
            stages = obs.get_probes().export()["stages"]
        finally:
            obs.set_probes(previous)
        for label in ("emitter:wlan+1", "emitter:bluetooth",
                      "emitter:microwave"):
            assert label in stages

    def test_probes_do_not_change_measurement(self):
        cfg = TestbenchConfig(
            rate_mbps=6, psdu_bytes=20, snr_db=8.0,
            scenario=Scenario.preset("hostile-coexistence"),
        )
        bare = WlanTestbench(cfg).measure_ber(n_packets=2, seed=5)
        previous = obs.set_probes(
            obs.ProbeRegistry(obs.probe_preset("basic"))
        )
        try:
            probed = WlanTestbench(cfg).measure_ber(n_packets=2, seed=5)
        finally:
            obs.set_probes(previous)
        assert bare.bit_errors == probed.bit_errors
        assert bare.bits_total == probed.bits_total

    def test_scenario_fading_reaches_the_channel(self):
        def measure(scenario):
            cfg = TestbenchConfig(rate_mbps=24, psdu_bytes=40,
                                  snr_db=10.0, scenario=scenario)
            return WlanTestbench(cfg).measure_ber(n_packets=3, seed=2)

        clean = measure(Scenario(name="empty"))
        faded = measure(Scenario.preset("indoor-fading"))
        assert (clean.bit_errors, clean.per) != (faded.bit_errors,
                                                 faded.per)

    def test_scenario_cli_runs(self, capsys):
        from repro.cli import main

        assert main(["scenario", "--list-presets"]) == 0
        assert "hostile-coexistence" in capsys.readouterr().out
        code = main([
            "scenario", "--preset", "microwave-oven",
            "--snr", "10", "--rate", "6", "--bytes", "20",
            "--packets", "1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "microwave" in out
        assert main(["scenario"]) == 2


@pytest.mark.slow
class TestScenarioEndToEnd:
    def test_three_emitter_sweep_schedule_invariant(self, tmp_path):
        """Hostile coexistence through the store: serial == --jobs 2."""
        store = obs.RunStore(tmp_path)
        sweep = ParameterSweep(
            base_config=TestbenchConfig(
                rate_mbps=12, psdu_bytes=40,
                scenario=Scenario.preset("hostile-coexistence"),
            ),
            parameter="snr_db",
            values=[10.0, 14.0, 18.0],
            n_packets=2,
            seed=7,
        )
        serial = sweep.run(jobs=1, store=store, run_name="serial")
        pooled = sweep.run(jobs=2, store=store, run_name="pooled")
        assert list(serial.bers) == list(pooled.bers)
        runs = {e.name: e.run_id for e in store.list_runs()}
        a = store.load_run(runs["serial"])
        b = store.load_run(runs["pooled"])
        assert a.kpis == b.kpis
        assert a.curves["serial"] == b.curves["pooled"]
        manifest = a.manifest["config"]["base_config"]
        assert manifest["scenario"]["name"] == "hostile-coexistence"
