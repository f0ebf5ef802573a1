"""Command-line interface: run the reproduction's experiments by name.

Usage::

    repro quickstart                    (or: python -m repro ...)
    repro fig5 [--packets N]
    repro fig6 [--packets N]
    repro table2
    repro sensitivity [--rates 6,24,54]
    repro flow
    repro netlist
    repro qa [--quick] [--faults] [--rare] [--scenarios] [--store DIR]
    repro rare [--rate 6] [--ebn0 8.4,9.6,10.5] [--packets N]
    repro scenario [--preset NAME | --config FILE] [--snr 8,12,16]
    repro profile fig5 [--packets N] [--chrome-trace out.json]

Conformance: ``repro qa`` runs the :mod:`repro.qa` harness — frozen
Annex-G-style TX vectors, analytic BER / Friis-cascade oracles, and the
netlist + PHY fuzz passes — and exits nonzero on any failed check.
With ``--store`` the outcome persists as a run of kind ``qa`` that
``repro runs diff`` gates like any experiment.

Observability: every command accepts ``--trace PATH`` (write a JSONL
span/event trace with a run-manifest header line) and ``--metrics PATH``
(write the run's metrics plus manifest as JSON).  ``repro profile``
wraps any experiment in a tracer and prints a per-block time breakdown.

Parallelism: ``--jobs N`` fans sweeps, packet batches and campaign
checks out over N worker processes (``--jobs 0`` = one per CPU); seed
derivation guarantees results bit-identical to a serial run.
``--memoize`` (with ``--store``) reuses stored sweep-point results
whose exact measurement setup was already run.

Resilience: ``--retries N`` re-runs a failed sweep point / packet batch
/ campaign check up to N times (same payload each attempt, so a retried
run matches a clean one exactly), ``--task-timeout S`` bounds each task,
and ``--resume`` (with ``--store``) checkpoints completed sweep points
and campaign checks incrementally so an interrupted run picks up where
it died — bit-identical to an uninterrupted run, which ``repro runs
diff`` can verify.  ``--inject-faults SPEC`` deterministically injects
failures (``[stage/]action:task[@attempt][=delay_s]``, e.g.
``sweep/fail:1@0`` or ``sweep/abort:3``) to exercise those paths; an
injected abort exits with code 70, an unrecovered task failure with 71.

Live telemetry: ``--live`` streams an ASCII dashboard (per-point
Wilson-CI convergence, worker heartbeats with stall detection, ETA)
while a run executes, ``--metrics-port PORT`` serves the run's metrics
as OpenMetrics text on ``127.0.0.1`` (0 picks a free port), and
``--openmetrics PATH`` writes the final exposition to a file.  All are
read-only: a ``--live`` run's measurements are bit-identical to one
without.  With ``--store`` the event timeline also persists as
``flight.jsonl`` (deterministic per seed and jobs), rendered as a "Run
timeline" section by ``repro report``; ``repro watch [run]`` tails an
in-flight run's spool (or replays a stored flight), and ``repro runs
trend [kpi-glob]`` prints per-KPI trajectories across stored runs.

Run store: ``--store DIR`` persists the whole run — manifest, metrics,
trace, result tables, BER curves, KPIs — as a content-addressed run
directory under DIR (default ``runs/``).  Stored runs are consumed by::

    repro runs list|show|diff|gc        inspect / regression-gate / prune
    repro runs trend [kpi-glob]         cross-run KPI trajectories
    repro report <run_id>               render markdown/HTML + chrome trace
    repro watch [run]                   tail / replay live telemetry

``repro runs diff <baseline> <candidate>`` exits nonzero when any KPI,
metric, BER curve or wall-clock aggregate regresses beyond tolerance —
the CI gate.  Run ids accept unique prefixes and the ``latest`` keyword.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

import numpy as np


def _cmd_quickstart(args) -> int:
    from repro.channel.awgn import AwgnChannel
    from repro.dsp.receiver import Receiver, RxConfig
    from repro.dsp.transmitter import Transmitter, TxConfig, random_psdu
    from repro.rf.frontend import DoubleConversionReceiver, FrontendConfig
    from repro.rf.signal import Signal

    rng = np.random.default_rng(args.seed)
    tx = Transmitter(TxConfig(rate_mbps=args.rate, oversample=4))
    psdu = random_psdu(args.bytes, rng)
    wave = tx.transmit(psdu)
    sig = Signal(
        np.concatenate([np.zeros(600, complex), wave, np.zeros(600, complex)]),
        80e6,
        5.2e9,
    ).scaled_to_dbm(args.level)
    sig = AwgnChannel(include_thermal_floor=True).process(sig, rng)
    out = DoubleConversionReceiver(FrontendConfig()).process(sig, rng)
    result = Receiver(RxConfig()).receive(
        out.samples / np.sqrt(out.power_watts())
    )
    if not result.success:
        print(f"reception failed: {result.failure}")
        return 1
    errors = int(np.unpackbits(result.psdu ^ psdu).sum())
    print(
        f"{args.rate} Mbps packet at {args.level} dBm: "
        f"{errors}/{8 * args.bytes} bit errors "
        f"(CFO estimate {result.cfo_hz / 1e3:.1f} kHz)"
    )
    return 0 if errors == 0 else 1


def _cmd_fig5(args) -> int:
    from repro.channel.interference import InterferenceScenario
    from repro.core.sweep import ParameterSweep
    from repro.core.testbench import TestbenchConfig
    from repro.rf.frontend import FrontendConfig

    cfg = TestbenchConfig(
        rate_mbps=36,
        psdu_bytes=60,
        thermal_floor=True,
        frontend=FrontendConfig(),
        interference=InterferenceScenario.adjacent(),
        input_level_dbm=-60.0,
    )
    sweep = ParameterSweep(
        base_config=cfg,
        parameter="frontend.lpf_edge_hz",
        values=[r * 1e8 for r in (0.04, 0.06, 0.08, 0.10, 0.14, 0.20)],
        n_packets=args.packets,
        seed=args.seed,
    )
    result = sweep.run(progress=print)
    print()
    print(result.as_table())
    return 0


def _cmd_fig6(args) -> int:
    from repro.channel.interference import InterferenceScenario
    from repro.core.sweep import ParameterSweep
    from repro.core.testbench import TestbenchConfig
    from repro.rf.frontend import FrontendConfig

    for name, scenario in (
        ("no interferer", InterferenceScenario.none()),
        ("adjacent +16 dB", InterferenceScenario.adjacent()),
    ):
        cfg = TestbenchConfig(
            rate_mbps=36,
            psdu_bytes=60,
            thermal_floor=True,
            frontend=FrontendConfig(),
            interference=scenario,
            input_level_dbm=-60.0,
        )
        result = ParameterSweep(
            base_config=cfg,
            parameter="frontend.lna_p1db_dbm",
            values=[-55.0, -45.0, -40.0, -35.0, -25.0, -15.0],
            n_packets=args.packets,
            seed=args.seed,
        ).run(run_name=name)
        print(f"\n== {name} ==")
        print(result.as_table())
    return 0


def _cmd_table2(args) -> int:
    from repro.core.reporting import render_table
    from repro.flow.cosim import CoSimConfig, CoSimulation
    from repro.rf.frontend import FrontendConfig

    cosim = CoSimulation(
        FrontendConfig(),
        CoSimConfig(rate_mbps=24, psdu_bytes=60, input_level_dbm=-55.0),
    )
    rows = cosim.compare(packet_counts=(1, 2, 4), seed=args.seed)
    print(
        render_table(
            ["packets", "system [s]", "co-sim [s]", "slowdown"],
            [
                [str(r["packets"]), f"{r['system_time_s']:.3f}",
                 f"{r['cosim_time_s']:.3f}", f"{r['slowdown']:.1f}x"]
                for r in rows
            ],
        )
    )
    return 0


def _cmd_sensitivity(args) -> int:
    from repro.core.reporting import render_table
    from repro.core.sensitivity import find_sensitivity

    starts = {6: -84.0, 9: -84.0, 12: -82.0, 18: -80.0,
              24: -78.0, 36: -72.0, 48: -68.0, 54: -66.0}
    rates = [int(r) for r in args.rates.split(",")]
    rows = []
    ok = True
    for rate in rates:
        result = find_sensitivity(
            rate, n_packets=args.packets, psdu_bytes=120,
            start_dbm=starts.get(rate, -70.0), seed=args.seed,
        )
        ok &= result.meets_standard
        rows.append(
            [str(rate), f"{result.sensitivity_dbm:.0f}",
             f"{result.standard_requirement_dbm:.0f}",
             "PASS" if result.meets_standard else "FAIL"]
        )
    print(render_table(
        ["rate [Mbps]", "measured [dBm]", "required [dBm]", "verdict"], rows
    ))
    return 0 if ok else 1


def _cmd_flow(args) -> int:
    from repro.core.verification import DesignFlow

    flow = DesignFlow(n_packets=args.packets, psdu_bytes=60, seed=args.seed)
    flow.run_all()
    print(flow.summary())
    return 0 if flow.all_passed else 1


def _cmd_campaign(args) -> int:
    from repro.core.campaign import VerificationCampaign

    campaign = VerificationCampaign(depth=args.depth, seed=args.seed)
    report = campaign.run()
    print(report.as_table())
    print(f"\ncampaign verdict: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


#: Experiments the profiler can wrap, and whether they take --packets.
_PROFILABLE = {
    "quickstart": False,
    "fig5": True,
    "fig6": True,
    "table2": False,
    "sensitivity": True,
    "flow": True,
    "campaign": False,
}


def _cmd_profile(args) -> int:
    from repro import obs
    from repro.core.reporting import render_table

    inner_argv = ["--seed", str(args.seed), args.experiment]
    if _PROFILABLE[args.experiment]:
        inner_argv += ["--packets", str(args.packets)]
    inner = build_parser().parse_args(inner_argv)

    # Reuse an already-installed tracer (e.g. from an outer --trace) so
    # the profile and the trace file see the same spans.
    active = obs.get_tracer()
    tracer = active if active.enabled else obs.Tracer()
    with obs.installed(tracer=tracer):
        code = inner.func(inner)

    rows = obs.profile_rows(tracer.records, prefix="block:")
    print()
    print(f"per-block time breakdown ({args.experiment}):")
    if rows:
        print(render_table(
            ["block", "calls", "total [s]", "mean [ms]", "share", "samples"],
            rows,
        ))
    else:
        print("(no block spans recorded)")
    if args.chrome_trace:
        obs.write_chrome_trace(args.chrome_trace, tracer.records)
        print(f"chrome trace written to {args.chrome_trace} "
              "(load in chrome://tracing or ui.perfetto.dev)")
    return code


# -- run-store consumers ------------------------------------------------
def _open_store(args):
    from repro.obs import RunStore

    return RunStore(args.store or "runs")


def _parse_since(text: str) -> Optional[float]:
    """Turn ``--since`` into a unix timestamp cutoff, or None on error.

    Accepts a relative age (``30m``, ``2h``, ``3d``, ``1w``, ``90s``)
    or an ISO date/datetime (``2026-08-01``, ``2026-08-01T12:00``).
    """
    import re
    import time
    from datetime import datetime

    match = re.fullmatch(r"(\d+(?:\.\d+)?)([smhdw])", text.strip())
    if match:
        unit_s = {"s": 1, "m": 60, "h": 3600, "d": 86400, "w": 604800}
        return time.time() - float(match.group(1)) * unit_s[match.group(2)]
    try:
        return datetime.fromisoformat(text.strip()).timestamp()
    except ValueError:
        print(
            f"bad --since value {text!r}: expected a relative age "
            "(30m, 2h, 3d, 1w) or an ISO date/datetime",
            file=sys.stderr,
        )
        return None


def _kind_spec(text: Optional[str]) -> Optional[List[str]]:
    """Split a ``--kind`` value into its include/exclude entries."""
    if not text:
        return None
    return [part.strip() for part in text.split(",") if part.strip()]


def _cmd_runs_list(args) -> int:
    from repro.core.reporting import render_table
    from repro.obs.live import _kind_selected

    store = _open_store(args)
    entries = store.list_runs()
    spec = _kind_spec(args.kind)
    if spec:
        entries = [e for e in entries if _kind_selected(e.kind, spec)]
    if args.since:
        cutoff = _parse_since(args.since)
        if cutoff is None:
            return 2
        entries = [e for e in entries if e.created_unix_s >= cutoff]
    if args.ids:
        for entry in entries:
            print(entry.run_id)
        return 0
    if not entries:
        print(f"(no runs under {store.root})")
        return 0
    print(render_table(
        ["run id", "kind", "name", "seed", "created"],
        [
            [
                e.run_id,
                e.kind,
                e.name or "-",
                str(e.seed) if e.seed is not None else "-",
                e.created_iso,
            ]
            for e in entries
        ],
    ))
    return 0


def _cmd_runs_show(args) -> int:
    from repro.core.reporting import render_table

    store = _open_store(args)
    try:
        run = store.load_run(args.run)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    manifest = run.manifest
    print(render_table(["field", "value"], [
        ["run id", run.run_id],
        ["created", str(manifest.get("created_iso", "-"))],
        ["seed", str(manifest.get("seed", "-"))],
        ["command", str(manifest.get("command", "-"))],
        ["integrity", "ok" if run.integrity_ok else
         "MODIFIED AFTER STORAGE"],
        ["curves", ", ".join(sorted(run.curves)) or "-"],
        ["tables", ", ".join(sorted(run.tables)) or "-"],
        ["trace", "yes" if run.has_trace else "no"],
    ]))
    if run.kpis:
        print()
        print(render_table(
            ["kpi", "value"],
            [[k, f"{v:.6g}"] for k, v in sorted(run.kpis.items())],
        ))
    return 0


def _cmd_runs_diff(args) -> int:
    from repro.core.reporting import render_table
    from repro.obs import RegressionConfig, compare_runs

    store = _open_store(args)
    try:
        baseline = store.load_run(args.baseline)
        candidate = store.load_run(args.candidate)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    config = RegressionConfig(
        kpi_abs_tol=args.kpi_abs_tol,
        kpi_rel_tol=args.kpi_rel_tol,
        timing_rel_tol=args.timing_tol,
        ber_shift_tol_db=args.ber_tol_db,
        probe_kpi_abs_tol=args.probe_tol,
        compare_timing=not args.no_timing,
        compare_metrics=not args.no_metrics,
    )
    verdict = compare_runs(baseline, candidate, config)
    headers, rows = verdict.rows(only_interesting=True)
    if rows:
        print(render_table(headers, rows))
        print()
    print(verdict.summary())
    return 0 if verdict.passed else 1


def _cmd_runs_gc(args) -> int:
    store = _open_store(args)
    removed = store.gc(args.keep, dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    if removed:
        for run_id in removed:
            print(f"{verb} {run_id}")
    kept = len(store.list_runs()) - (len(removed) if args.dry_run else 0)
    print(f"{verb} {len(removed)} run(s), kept {kept} under {store.root}")
    return 0


def _cmd_runs_trend(args) -> int:
    from repro import obs
    from repro.core.reporting import render_table

    store = _open_store(args)
    since = None
    if args.since:
        since = _parse_since(args.since)
        if since is None:
            return 2
    series = obs.kpi_trend(
        store,
        pattern=args.pattern,
        kinds=_kind_spec(args.kind),
        since=since,
        last=args.last,
    )
    if not series:
        print(
            f"no stored KPIs match {args.pattern!r} under {store.root}",
            file=sys.stderr,
        )
        return 1
    for name, samples in series.items():
        values = [s["value"] for s in samples]
        print(
            f"{name}: {len(values)} run(s), "
            f"first={values[0]:.6g} last={values[-1]:.6g}  "
            f"[{obs.sparkline(values)}]"
        )
        print(render_table(
            ["created", "kind", "run id", "value"],
            [
                [s["created_iso"] or "-", s["kind"], s["run_id"],
                 f"{s['value']:.6g}"]
                for s in samples
            ],
        ))
        print()
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(series, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"trend data written to {args.json_out}", file=sys.stderr)
    return 0


def _cmd_watch(args) -> int:
    import time as _time
    from pathlib import Path

    from repro import obs

    root = Path(args.store or "runs")
    token = args.run or "latest"

    def read_spool(path: Path):
        records = []
        try:
            lines = path.read_text(encoding="utf-8").splitlines()
        except OSError:
            return records
        for line in lines:
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except ValueError:
                continue  # partial line mid-write; next tick gets it
        return records

    # Prefer an in-flight spool (<store>/live/<command>.jsonl) matching
    # the token; fall back to a finished run's stored flight recorder.
    live_dir = root / "live"
    spools = []
    if live_dir.is_dir():
        spools = [
            p for p in live_dir.glob("*.jsonl")
            if token == "latest" or token in p.stem
        ]
        spools.sort(key=lambda p: p.stat().st_mtime)
    if spools:
        spool = spools[-1]
        print(f"watching {spool} (ctrl-c to stop)", file=sys.stderr)
        last = None
        while True:
            monitor = obs.LiveMonitor.replay(read_spool(spool))
            text = obs.render_dashboard(monitor.snapshot())
            if text != last:
                print(text)
                print()
                last = text
            if args.once:
                return 0
            try:
                _time.sleep(args.interval)
            except KeyboardInterrupt:
                return 0
    store = obs.RunStore(root)
    try:
        run = store.load_run(token)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    if not run.flight:
        print(
            f"run {run.run_id} has no flight recorder "
            "(it was executed without --live)",
            file=sys.stderr,
        )
        return 1
    print(
        f"replaying stored flight of {run.run_id} "
        f"({len(run.flight)} records)",
        file=sys.stderr,
    )
    print(obs.render_dashboard(obs.LiveMonitor.replay(run.flight).snapshot()))
    return 0


def _cmd_report(args) -> int:
    from repro import obs

    store = _open_store(args)
    try:
        run = store.load_run(args.run)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    if args.chrome_trace:
        obs.write_chrome_trace(
            args.chrome_trace, run.trace_records(),
            metadata={"run_id": run.run_id},
        )
        print(f"chrome trace written to {args.chrome_trace} "
              "(load in chrome://tracing or ui.perfetto.dev)",
              file=sys.stderr)
    sections = obs.run_sections(run)
    title = f"Run {run.run_id}"
    text = (
        obs.render_html(title, sections) if args.html
        else obs.render_markdown(title, sections)
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"report written to {args.out}", file=sys.stderr)
    else:
        print(text, end="")
    return 0


def _cmd_netlist(args) -> int:
    from repro.flow.netlist import NetlistCompiler, frontend_to_netlist
    from repro.rf.frontend import FrontendConfig

    text = frontend_to_netlist(FrontendConfig())
    print(text)
    design = NetlistCompiler(target=args.target).compile(text)
    for warning in design.warnings:
        print(f"WARNING: {warning}", file=sys.stderr)
    return 0


def _cmd_probe(args) -> int:
    from repro import obs
    from repro.channel.interference import InterferenceScenario
    from repro.core.reporting import render_table
    from repro.core.testbench import TestbenchConfig, WlanTestbench
    from repro.obs.probes import (
        ccdf_rows,
        evm_rows,
        render_spectrum_ascii,
        waterfall_rows,
    )
    from repro.rf.frontend import FrontendConfig

    interference = (
        InterferenceScenario.adjacent() if args.adjacent
        else InterferenceScenario.none()
    )
    cfg = TestbenchConfig(
        rate_mbps=args.rate,
        psdu_bytes=args.bytes,
        thermal_floor=True,
        frontend=FrontendConfig(),
        interference=interference,
        input_level_dbm=args.level,
    )
    bench = WlanTestbench(cfg)
    measurement = bench.measure_ber(n_packets=args.packets, seed=args.seed)
    probes = obs.get_probes()
    export = probes.export()
    print(
        f"{args.packets} packets at {args.rate} Mbps, {args.level:.1f} dBm "
        f"input{' + adjacent channel' if args.adjacent else ''}: "
        f"BER {measurement.ber:.3g}, PER {measurement.per:.3g}"
    )
    headers, rows = waterfall_rows(export)
    if rows:
        print("\nbudget waterfall (measured vs cascade prediction):")
        print(render_table(headers, rows))
    headers, rows = evm_rows(export)
    if rows:
        print("\ndata-aided EVM at the equalizer output:")
        print(render_table(headers, rows))
    for stage, v in sorted(export.get("mask", {}).items()):
        verdict = "pass" if v["worst_margin_db"] >= 0.0 else "FAIL"
        print(
            f"\n802.11a transmit mask at '{stage}': worst margin "
            f"{v['worst_margin_db']:.2f} dB over {v['n']} burst(s) "
            f"[{verdict}]"
        )
    for stage in ("tx",):
        headers, rows = ccdf_rows(export, stage)
        if rows:
            print(f"\nPAPR CCDF at '{stage}':")
            print(render_table(headers, rows))
    for stage in ("rf:lpf", "channel", "tx"):
        if stage in export.get("psd", {}):
            art = render_spectrum_ascii(export, stage)
            if not art.startswith("("):
                print(f"\naccumulated Welch PSD at '{stage}':")
                print(art)
            break
    return 0


def _cmd_rare(args) -> int:
    from repro import obs, perf
    from repro.core.reporting import render_table
    from repro.perf import rare
    from repro.qa.oracles import RATE_MODULATIONS, theoretical_ber

    modulation = RATE_MODULATIONS.get(args.rate)
    if modulation is None:
        print(f"unknown rate {args.rate} Mbit/s", file=sys.stderr)
        return 2
    ebn0s = [float(tok) for tok in args.ebn0.split(",") if tok.strip()]
    children = perf.spawn(args.seed, len(ebn0s))
    rows = []
    curve = {"x_label": "ebn0_db", "x": [], "ber": [], "per": [],
             "packets": []}
    kpis = {}
    ok = True
    for ebn0, child in zip(ebn0s, children):
        meas = rare.measure_uncoded_ber(
            modulation, ebn0,
            n_packets=args.packets, symbols_per_packet=args.symbols,
            estimator=args.estimator, boost_db=args.boost_db,
            seed=child, jobs=args.jobs,
        )
        theory = theoretical_ber(modulation, ebn0)
        low, high = meas.confidence(z=4.5)
        contained = low <= theory <= high
        ok &= contained
        rows.append([
            f"{ebn0:.2f}",
            f"{meas.ber:.4g}",
            f"{theory:.4g}",
            f"[{low:.3g}, {high:.3g}]",
            f"{meas.boost_db:.2f}",
            f"{100.0 * meas.ess_fraction:.0f}%",
            f"{meas.vr_estimate:.3g}",
            "PASS" if contained else "FAIL",
        ])
        tag = f"ebn0={ebn0:g}"
        kpis[f"ber[{tag}]"] = meas.ber
        kpis[f"theory[{tag}]"] = theory
        kpis[f"ess[{tag}]"] = meas.ess
        kpis[f"vr_estimate[{tag}]"] = meas.vr_estimate
        kpis[f"estimator_is[{tag}]"] = (
            1.0 if meas.estimator == "is" else 0.0
        )
        curve["x"].append(float(ebn0))
        curve["ber"].append(meas.ber)
        curve["per"].append(meas.per)
        curve["packets"].append(meas.packets)
    table = render_table(
        ["Eb/N0 [dB]", "BER", "theory", "CI (z=4.5)", "boost [dB]",
         "ESS", "VR", "verdict"],
        rows,
    )
    print(
        f"{modulation} uncoded rare-event BER "
        f"({args.estimator}, {args.packets} packets x "
        f"{args.symbols} symbols per point):"
    )
    print(table)
    obs.contribute(
        None,
        kind="rare",
        name="rare",
        seed=args.seed,
        config={
            "rate_mbps": args.rate,
            "modulation": modulation,
            "ebn0_db": ebn0s,
            "packets": args.packets,
            "symbols": args.symbols,
            "estimator": args.estimator,
            "boost_db": args.boost_db,
        },
        tables={"rare": table},
        curves={"rare": curve},
        kpis=kpis,
    )
    if not ok:
        print(
            "\nrare: theory escaped the z=4.5 confidence interval at "
            "one or more points",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_scenario(args) -> int:
    from repro.core.sweep import ParameterSweep
    from repro.core.testbench import TestbenchConfig
    from repro.scenario import PRESETS, Scenario, preset_names

    if args.list_presets:
        for name in preset_names():
            preset = PRESETS[name]
            parts = [
                f"{e['type']}{e['excess_db']:+g}dB"
                for e in preset.get("emitters", [])
            ]
            if "fading" in preset:
                parts.append("fading")
            print(f"{name}: {', '.join(parts) or '(clean)'}")
        return 0
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            scenario = Scenario.from_json(fh.read())
    elif args.preset:
        scenario = Scenario.preset(args.preset)
    else:
        print(
            "scenario: pass --preset NAME, --config PATH, or "
            "--list-presets",
            file=sys.stderr,
        )
        return 2
    snrs = [float(tok) for tok in args.snr.split(",") if tok.strip()]
    if not snrs:
        print("scenario: --snr needs at least one value", file=sys.stderr)
        return 2
    sweep = ParameterSweep(
        base_config=TestbenchConfig(
            rate_mbps=args.rate,
            psdu_bytes=args.bytes,
            scenario=scenario,
        ),
        parameter="snr_db",
        values=snrs,
        n_packets=args.packets,
        seed=args.seed,
    )
    result = sweep.run(run_name=f"scenario:{scenario.name}")
    print(scenario.describe())
    print()
    print(result.as_table())
    return 0


def _cmd_qa(args) -> int:
    from repro.qa import run_qa

    report = run_qa(
        seed=args.seed, jobs=args.jobs, quick=args.quick,
        faults=args.faults, rare=args.rare, scenarios=args.scenarios,
    )
    print(report.as_table())
    n = len(report.checks)
    if report.passed:
        print(f"\nQA: all {n} checks passed")
        return 0
    failed = [c for c in report.checks if not c.passed]
    print(f"\nQA: {len(failed)}/{n} checks FAILED:", file=sys.stderr)
    for c in failed:
        print(f"  {c.section}.{c.name}: {c.detail}", file=sys.stderr)
    return 1


def build_parser() -> argparse.ArgumentParser:
    """Construct the repro CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Verification of the RF Subsystem within "
            "Wireless LAN System Level Simulation' (DATE 2003)"
        ),
    )
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for sweeps/packets/checks "
             "(0 = one per CPU; default 1, i.e. serial; results are "
             "bit-identical either way)",
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=None,
        metavar="N",
        help="packets evaluated per stacked PHY-chain pass "
             "(default 1, i.e. one packet at a time); BER curves and "
             "KPIs are bit-identical at any batch size, early stop "
             "included (a larger batch only computes uncounted packets "
             "after a stop); probe sums may differ in the last bits",
    )
    parser.add_argument(
        "--memoize",
        action="store_true",
        help="with --store: skip sweep points whose exact measurement "
             "setup already has a stored result, and store fresh points "
             "for future runs",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="re-run a failed sweep point / packet batch / campaign "
             "check up to N times before giving up (default 0); retries "
             "replay the same seeds, so a retried run is bit-identical "
             "to a clean one",
    )
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="S",
        help="per-task wall-clock budget in seconds; a task that "
             "exceeds it fails (and is retried under --retries)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="with --store: checkpoint completed sweep points and "
             "campaign checks incrementally, and resume an interrupted "
             "run from its checkpoints — bit-identical to an "
             "uninterrupted run",
    )
    parser.add_argument(
        "--inject-faults",
        metavar="SPEC",
        default=None,
        help="deterministically inject failures for testing the error "
             "paths: comma-separated [stage/]action:task[@attempt]"
             "[=delay_s] with action fail|kill|delay|abort, e.g. "
             "'sweep/fail:1@0,sweep/abort:3'",
    )
    parser.add_argument(
        "--probes",
        nargs="?",
        const="basic",
        choices=("basic", "full"),
        default=None,
        metavar="PRESET",
        help="attach signal probes (stage power waterfall, EVM, "
             "transmit-mask margin, PAPR) to the simulated chain; "
             "'basic' (default) keeps scalar summaries, 'full' adds "
             "PSDs and constellation snapshots; probe KPIs persist "
             "with --store and render under 'repro report'",
    )
    parser.add_argument(
        "--live",
        action="store_true",
        help="stream a live telemetry dashboard (per-point Wilson-CI "
             "convergence, worker heartbeats, ETA) to stderr while the "
             "run executes; with --store the event timeline persists as "
             "flight.jsonl — measurements are bit-identical either way",
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve live run metrics as OpenMetrics text on "
             "127.0.0.1:PORT/metrics while the run executes "
             "(0 = pick a free port, printed to stderr)",
    )
    parser.add_argument(
        "--openmetrics",
        metavar="PATH",
        default=None,
        help="write the run's final metrics as an OpenMetrics text "
             "exposition to PATH",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a JSONL span/event trace of the run to PATH",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="write run metrics + manifest as JSON to PATH",
    )
    parser.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help=(
            "persist the run (manifest, metrics, trace, tables, curves, "
            "KPIs) as a run directory under DIR; 'repro runs'/'repro "
            "report' read the same store (their default DIR is runs/)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("quickstart", help="one packet end to end")
    p.add_argument("--rate", type=int, default=54)
    p.add_argument("--bytes", type=int, default=200)
    p.add_argument("--level", type=float, default=-60.0)
    p.set_defaults(func=_cmd_quickstart)

    p = sub.add_parser("fig5", help="BER vs channel-filter bandwidth")
    p.add_argument("--packets", type=int, default=3)
    p.set_defaults(func=_cmd_fig5)

    p = sub.add_parser("fig6", help="BER vs LNA compression point")
    p.add_argument("--packets", type=int, default=3)
    p.set_defaults(func=_cmd_fig6)

    p = sub.add_parser("table2", help="co-simulation slowdown")
    p.set_defaults(func=_cmd_table2)

    p = sub.add_parser("sensitivity", help="receiver sensitivity vs table 91")
    p.add_argument("--rates", default="6,24,54")
    p.add_argument("--packets", type=int, default=5)
    p.set_defaults(func=_cmd_sensitivity)

    p = sub.add_parser("flow", help="the section-4 design flow")
    p.add_argument("--packets", type=int, default=3)
    p.set_defaults(func=_cmd_flow)

    p = sub.add_parser(
        "campaign", help="run the full verification acceptance campaign"
    )
    p.add_argument("--depth", choices=("quick", "full"), default="quick")
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser(
        "probe",
        help="run one configurable packet burst with full signal probes "
             "and print the stage budget waterfall, EVM, transmit-mask "
             "margin, PAPR CCDF, and accumulated spectrum",
    )
    p.add_argument("--rate", type=int, default=24, help="PHY rate [Mb/s]")
    p.add_argument("--bytes", type=int, default=60, help="PSDU size")
    p.add_argument("--packets", type=int, default=4, help="burst length")
    p.add_argument(
        "--level", type=float, default=-55.0,
        help="antenna input level [dBm]",
    )
    p.add_argument(
        "--adjacent", action="store_true",
        help="add the paper's adjacent-channel interferer",
    )
    p.add_argument(
        "--preset", choices=("basic", "full"), default="full",
        help="probe preset when the global --probes flag is absent",
    )
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("netlist", help="emit + compile the RF netlist")
    p.add_argument("--target", choices=("ams", "spectre"), default="ams")
    p.set_defaults(func=_cmd_netlist)

    p = sub.add_parser(
        "profile",
        help="run an experiment under the tracer and print the "
             "per-block time breakdown",
    )
    p.add_argument("experiment", choices=sorted(_PROFILABLE))
    p.add_argument("--packets", type=int, default=3)
    p.add_argument(
        "--chrome-trace",
        metavar="PATH",
        default=None,
        help="additionally export the trace as Chrome trace-event JSON "
             "(chrome://tracing / Perfetto)",
    )
    p.set_defaults(func=_cmd_profile)

    # Store consumers also accept --store *after* the subcommand; the
    # value parsed at the global position wins (argparse only applies a
    # subparser default when the attribute is not set yet).
    store_opt = argparse.ArgumentParser(add_help=False)
    store_opt.add_argument(
        "--store", metavar="DIR", default=None,
        help="run store directory (default runs/)",
    )

    p = sub.add_parser(
        "qa",
        parents=[store_opt],
        help="conformance vectors + analytic oracles + fuzz harness; "
             "exits nonzero on any failed check",
    )
    p.add_argument(
        "--quick",
        action="store_true",
        help="reduced sample sizes (CI smoke; statistical bounds widen "
             "accordingly)",
    )
    p.add_argument(
        "--faults",
        action="store_true",
        help="additionally exercise the resilience paths: injected task "
             "failures with retries, a killed worker with pool "
             "fallback, timeouts, and interrupt/resume determinism",
    )
    p.add_argument(
        "--rare",
        action="store_true",
        help="additionally run the rare-event estimator section: "
             "importance-sampling unbiasedness against plain MC and "
             "the Cho-Yoon closed forms (z=4.5), the >=10x "
             "variance-reduction gate, weight diagnostics, and "
             "adaptive-allocation determinism",
    )
    p.add_argument(
        "--scenarios",
        action="store_true",
        help="additionally run the multi-emitter scenario section: "
             "emitter stream isolation, legacy-interference-path "
             "equivalence, power-convention accuracy, and serial vs "
             "parallel schedule invariance",
    )
    p.set_defaults(func=_cmd_qa)

    p = sub.add_parser(
        "scenario",
        help="measure BER over an SNR sweep inside a declarative "
             "multi-emitter RF scenario (built-in preset or JSON "
             "config)",
    )
    p.add_argument(
        "--preset", default=None,
        help="built-in scenario name (see --list-presets)",
    )
    p.add_argument(
        "--config", metavar="PATH", default=None,
        help="JSON scenario config file (overrides --preset)",
    )
    p.add_argument(
        "--list-presets", action="store_true",
        help="list the built-in scenario presets and exit",
    )
    p.add_argument(
        "--snr", default="8,12,16,20",
        help="comma-separated SNR points [dB]",
    )
    p.add_argument("--rate", type=int, default=24, help="PHY rate [Mb/s]")
    p.add_argument("--bytes", type=int, default=60, help="PSDU size")
    p.add_argument("--packets", type=int, default=4,
                   help="packets per SNR point")
    p.set_defaults(func=_cmd_scenario)

    p = sub.add_parser(
        "rare",
        help="importance-sampled uncoded BER at deep operating points, "
             "checked against the Cho-Yoon closed forms; exits nonzero "
             "when theory escapes any point's z=4.5 interval",
    )
    p.add_argument("--rate", type=int, default=6,
                   help="PHY rate selecting the constellation [Mb/s]")
    p.add_argument(
        "--ebn0", default="8.4,9.6,10.5",
        help="comma-separated Eb/N0 points [dB] (defaults span "
             "BER 1e-4 .. 1e-6 for BPSK)",
    )
    p.add_argument("--packets", type=int, default=200,
                   help="trial blocks per point")
    p.add_argument("--symbols", type=int, default=256,
                   help="symbols per trial block")
    p.add_argument(
        "--estimator", choices=("mc", "is"), default="is",
        help="plain Monte-Carlo or importance sampling (default)",
    )
    p.add_argument(
        "--boost-db", type=float, default=None,
        help="explicit proposal noise boost [dB]; default picks the "
             "boost landing each point at BER ~2e-2",
    )
    p.set_defaults(func=_cmd_rare)

    p = sub.add_parser("runs", help="inspect the persistent run store")
    runs_sub = p.add_subparsers(dest="runs_command", required=True)

    q = runs_sub.add_parser("list", parents=[store_opt],
                            help="list stored runs, newest first")
    q.add_argument("--kind", default=None,
                   help="only runs of these kinds (comma-separated; "
                        "prefix a kind with ! to exclude it, e.g. "
                        "--kind '!point' hides memoized sweep points)")
    q.add_argument("--since", default=None, metavar="AGE|DATE",
                   help="only runs created within a relative age "
                        "(30m, 2h, 3d, 1w) or at/after an ISO "
                        "date/datetime")
    q.add_argument("--ids", action="store_true",
                   help="print bare run ids only")
    q.set_defaults(func=_cmd_runs_list, consumes_store=True)

    q = runs_sub.add_parser(
        "trend",
        parents=[store_opt],
        help="per-KPI trajectories across stored runs, oldest first "
             "(the consumer for accumulated run history)",
    )
    q.add_argument("pattern", nargs="?", default="*",
                   help="fnmatch glob over KPI names (default: all)")
    q.add_argument("--kind", default=None,
                   help="only runs of these kinds (comma-separated, "
                        "! excludes)")
    q.add_argument("--since", default=None, metavar="AGE|DATE",
                   help="only runs created within a relative age or "
                        "at/after an ISO date/datetime")
    q.add_argument("--last", type=int, default=None, metavar="N",
                   help="keep only each KPI's most recent N samples")
    q.add_argument("--json", dest="json_out", metavar="PATH",
                   default=None,
                   help="also export the full series as JSON to PATH")
    q.set_defaults(func=_cmd_runs_trend, consumes_store=True)

    q = runs_sub.add_parser("show", parents=[store_opt],
                            help="summarize one stored run")
    q.add_argument("run", help="run id, unique prefix, or 'latest'")
    q.set_defaults(func=_cmd_runs_show, consumes_store=True)

    q = runs_sub.add_parser(
        "diff",
        parents=[store_opt],
        help="compare a candidate run against a baseline; exits nonzero "
             "on any regression beyond tolerance",
    )
    q.add_argument("baseline", help="run id, unique prefix, or 'latest'")
    q.add_argument("candidate", help="run id, unique prefix, or 'latest'")
    q.add_argument("--kpi-abs-tol", type=float, default=0.0,
                   help="absolute KPI/metric tolerance (default exact)")
    q.add_argument("--kpi-rel-tol", type=float, default=0.0,
                   help="relative KPI/metric tolerance (default exact)")
    q.add_argument("--ber-tol-db", type=float, default=1.0,
                   help="allowed BER-curve shift in dB at fixed BER")
    q.add_argument("--timing-tol", type=float, default=0.5,
                   help="allowed one-sided wall-clock growth (0.5 = +50%%)")
    q.add_argument("--probe-tol", type=float, default=0.0,
                   help="absolute tolerance for probe.* KPIs — EVM, mask "
                        "margin, PAPR, stage power, all in dB "
                        "(default exact)")
    q.add_argument("--no-timing", action="store_true",
                   help="skip wall-clock comparisons entirely")
    q.add_argument("--no-metrics", action="store_true",
                   help="skip operational-metric comparisons (KPIs and "
                        "curves still gate); use when comparing a "
                        "resumed run, whose cached points skip "
                        "simulation-side counters")
    q.set_defaults(func=_cmd_runs_diff, consumes_store=True)

    q = runs_sub.add_parser(
        "gc", parents=[store_opt],
        help="prune the oldest runs, keeping the N newest",
    )
    q.add_argument("--keep", type=int, required=True,
                   help="number of newest runs to keep")
    q.add_argument("--dry-run", action="store_true",
                   help="list what would be removed without deleting")
    q.set_defaults(func=_cmd_runs_gc, consumes_store=True)

    p = sub.add_parser(
        "report",
        parents=[store_opt],
        help="render a stored run as markdown/HTML, optionally with a "
             "chrome://tracing export",
    )
    p.add_argument("run", help="run id, unique prefix, or 'latest'")
    p.add_argument("--html", action="store_true",
                   help="render HTML instead of markdown")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="write to PATH instead of stdout")
    p.add_argument("--chrome-trace", metavar="PATH", default=None,
                   help="also export the stored trace as Chrome "
                        "trace-event JSON")
    p.set_defaults(func=_cmd_report, consumes_store=True)

    p = sub.add_parser(
        "watch",
        parents=[store_opt],
        help="tail an in-flight --live run's telemetry spool, or "
             "replay a finished run's stored flight recorder",
    )
    p.add_argument("run", nargs="?", default=None,
                   help="run id prefix, command name, or 'latest' "
                        "(default: the most recent)")
    p.add_argument("--interval", type=float, default=2.0, metavar="S",
                   help="refresh period in seconds (default 2)")
    p.add_argument("--once", action="store_true",
                   help="render one snapshot and exit (no tailing)")
    p.set_defaults(func=_cmd_watch, consumes_store=True)
    return parser


def _run_observed(args, argv) -> int:
    """Run the selected command under a tracer + fresh metrics registry.

    With ``--store`` the whole observed run — manifest, metrics, trace,
    plus whatever tables/curves/KPIs the command's sweeps, campaigns and
    co-simulations contributed — is additionally persisted as one run
    directory.
    """
    from repro import obs

    tracer = obs.Tracer()
    registry = obs.MetricsRegistry()
    command_line = (
        "repro " + " ".join(argv if argv is not None else sys.argv[1:])
    )
    manifest = obs.build_manifest(
        seed=args.seed,
        command=command_line,
        config={
            k: v for k, v in vars(args).items()
            # Pure observation flags stay out of the manifest config
            # (like --trace/--metrics/--store), so a --live run's
            # manifest matches its baseline's.
            if k not in ("func", "trace", "metrics", "store",
                         "live", "metrics_port", "openmetrics")
        },
    )
    writer = None
    if args.store:
        store = obs.RunStore(args.store)
        writer = store.create(
            args.command, name=args.command, seed=args.seed,
            command=command_line,
        )
    monitor = obs.get_live_monitor()
    if monitor is not None and args.store:
        # Spool flight records next to the store so `repro watch` can
        # tail this run from another terminal while it executes.
        from pathlib import Path

        monitor.open_spool(
            Path(args.store) / "live" / f"{args.command}.jsonl"
        )
    with obs.installed(tracer=tracer, registry=registry, writer=writer):
        with tracer.span(f"run:{args.command}"):
            code = args.func(args)
    probes = obs.get_probes()
    if probes.enabled and probes.has_data():
        probes.emit_metrics(registry)
        if writer is not None:
            writer.add_probes(probes.export())
            writer.add_kpis(probes.kpis())
    if monitor is not None and monitor.has_data():
        monitor.emit_metrics(registry)
        if writer is not None:
            writer.add_flight(monitor.flight_records())
    if args.openmetrics:
        with open(args.openmetrics, "w", encoding="utf-8") as fh:
            fh.write(obs.openmetrics_text(registry))
        print(f"openmetrics written to {args.openmetrics}",
              file=sys.stderr)
    if args.trace:
        tracer.write_jsonl(args.trace, header=manifest.as_dict())
    if args.metrics:
        payload = {
            "manifest": manifest.as_dict(),
            "metrics": registry.as_dict(),
        }
        with open(args.metrics, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if writer is not None:
        record = writer.finalize(
            tracer=tracer, registry=registry, manifest=manifest
        )
        print(f"run stored: {record.run_id} ({record.path})",
              file=sys.stderr)
    if monitor is not None:
        # The run finished: its flight is persisted (when storing), so
        # the tail spool is no longer needed.  On an aborted run this
        # line is never reached and the spool survives for post-mortem
        # `repro watch`.
        monitor.close_spool(remove=True)
    return code


def _normalize_probe_flag(argv: List[str]) -> List[str]:
    """Make the optional value of ``--probes`` actually optional.

    argparse's ``nargs="?"`` greedily consumes the next token, so a bare
    ``repro --probes fig5`` would read ``fig5`` as the preset.  Insert
    the default preset whenever ``--probes`` is not followed by one.
    """
    out: List[str] = []
    for i, tok in enumerate(argv):
        out.append(tok)
        if tok == "--probes":
            nxt = argv[i + 1] if i + 1 < len(argv) else None
            if nxt not in ("basic", "full"):
                out.append("basic")
    return out


def _run_settings(args) -> dict:
    """The ``RunContext`` fields the execution flags set (unset omitted)."""
    from repro import perf

    settings = dict(
        jobs=args.jobs, batch_size=args.batch_size, retries=args.retries,
        task_timeout=args.task_timeout, memoize=args.memoize or None,
        resume=args.resume or None,
        fault_plan=(perf.parse_fault_spec(args.inject_faults)
                    if args.inject_faults else None),
    )
    return {k: v for k, v in settings.items() if v is not None}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    from repro import perf

    parser = build_parser()
    argv = _normalize_probe_flag(
        list(argv) if argv is not None else sys.argv[1:]
    )
    args = parser.parse_args(argv)
    if getattr(args, "consumes_store", False):
        # Store consumers (runs/report) read run directories; they never
        # trace or persist themselves.
        return args.func(args)
    from repro import obs

    sinks = {}
    probe_preset_name = args.probes
    if args.command == "probe" and probe_preset_name is None:
        probe_preset_name = args.preset
    if probe_preset_name is not None:
        sinks["probes"] = obs.ProbeRegistry(
            obs.probe_preset(probe_preset_name)
        )
    live_requested = bool(
        args.live or args.metrics_port is not None or args.openmetrics
    )
    monitor = None
    dashboard = None
    if live_requested:
        monitor = sinks["live_monitor"] = obs.LiveMonitor()
        if args.live:
            dashboard = obs.LiveDashboard()
            monitor.on_update = dashboard.on_update
    server = None
    with perf.use_context(**_run_settings(args)), obs.installed(**sinks):
        try:
            if args.metrics_port is not None:
                server = obs.MetricsServer(port=args.metrics_port).start()
                print(f"live metrics: {server.url}", file=sys.stderr)
            if args.trace or args.metrics or args.store or live_requested:
                return _run_observed(args, argv)
            return args.func(args)
        except perf.InjectedFault as exc:
            print(f"interrupted: {exc}", file=sys.stderr)
            return 70
        except perf.TaskFailedError as exc:
            print(exc.error.traceback, file=sys.stderr, end="")
            print(f"task failed after retries: {exc}", file=sys.stderr)
            return 71
        finally:
            if server is not None:
                server.stop()
            if dashboard is not None:
                dashboard.final(monitor)
            if monitor is not None:
                # No-op on a clean run (the spool was already removed);
                # flushes and keeps the spool after an abort.
                monitor.close_spool()


if __name__ == "__main__":
    sys.exit(main())
