#!/usr/bin/env python3
"""Engine perf regression gate.

Compares a fresh fig15_scale run (BENCH json) against a baseline and
fails on a throughput regression beyond the tolerance band, printing a
trajectory diff (PR-2 heap engine -> baseline -> this run) that CI
appends to the job summary.

Baseline selection: the committed BENCH_engine.json is the floor of
record, but a single committed point is one machine's one noisy run.
Two history sources refine it, each topo gating against the *median of
the last --history-limit (default 3) runs*:

  --history-file FILE   the committed BENCH_history.json — a list of
                        per-PR runs appended at every PR, so the rolling
                        window survives cache eviction and is reviewable
                        in the diff. Read first (oldest).
  --history DIR         bench jsons from previous CI runs kept in an
                        actions cache. Read second (newest); the window
                        takes the combined tail.

The rolling window tracks the fleet's real recent throughput, absorbs
one-off noise in either direction, and falls back to the committed
value for topos with no history yet.

Gated columns: shards1_events_per_sec always; shards8_events_per_sec /
shards16_events_per_sec wherever the committed baseline records them —
the channel-clock scaling path is held to the same band as sequential
throughput, and a sweep that silently drops a committed multi-shard
column fails.

Modes:
  raw (default)   each topo's shards1_events_per_sec must stay within
                  --tolerance of the baseline value. Right when baseline
                  and current run on the same machine.
  --calibrate     divides out machine speed first: the best-performing
                  topo's current/baseline ratio (capped at 1.0) is taken
                  as the machine factor, and every topo must stay within
                  --tolerance of factor * baseline. A uniformly slower
                  CI runner passes; a subsystem that regressed relative
                  to its peers fails. A hard floor (--hard-floor, default
                  0.25x baseline) still catches across-the-board
                  collapses that calibration could otherwise absorb.

Always enforced: nonzero throughput and a clean determinism column.

Memory gate: each engine row's peak_rss_kb (VmHWM after the sweep point;
fig15 rows carry it per (topo, shards)) must stay within --rss-tolerance
(default 15%) growth of the rolling per-row median, scale-matched the
same way as throughput. RSS is an absolute measurement — machine-speed
calibration does not apply — but it IS workload-scale-dependent, so the
committed full-scale rows only backstop a same-scale run; in CI the gate
converges from its own cache window within a few pushes. Rows without a
scale-matched baseline pass as "new". Shrinkage never fails: the whole
point of the memory diet is the number going down.

--self-test runs the gate against synthetic inputs (a >25% injected
regression must fail, a healthy run must pass; rolling-median selection
included) and is wired into CI so the gate itself is tested on every
push.
"""

import argparse
import glob
import json
import os
import sys
from statistics import median


# Throughput columns the gate understands; shards8/16 are gated wherever
# the committed baseline records them.
COLUMNS = ("shards1_events_per_sec", "shards8_events_per_sec",
           "shards16_events_per_sec")


def load_topos(path):
    with open(path) as f:
        doc = json.load(f)
    engine = doc.get("engine", {})
    return engine.get("topos", {}), engine.get("scale"), doc.get("baseline", {})


def load_rows(path):
    """The per-(topo, shards) engine rows fig15_scale records (each
    carries peak_rss_kb = VmHWM sampled after the point). Absent
    section -> ([], None)."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError):
        return [], None
    engine = doc.get("engine", {})
    return engine.get("rows", []), engine.get("scale")


def load_fault(path):
    """The "fault" section ext_fault writes (graceful-degradation
    headline). Absent section -> {} (not every bench sweep runs it)."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError):
        return {}
    return doc.get("fault", {})


def gate_fault(current, baseline, tolerance):
    """Gates the fault-plane headline. The booleans are invariants — a
    run that loses flows or never recovers goodput across the storm
    fails regardless of baseline or scale. Recovery latency is sim-time
    (deterministic), but its magnitude depends on the run length, so it
    is compared against the baseline only when both recorded the same
    BFC_BENCH_SCALE. Returns (failures, markdown); both empty when the
    current run has no fault section (the sweep didn't run ext_fault)."""
    if not current:
        return [], ""
    failures = []
    head = current.get("headline", {})
    if not head.get("bfc_all_complete", 0):
        failures.append("fault: BFC lost flows across the link-flap storm "
                        "(bfc_all_complete=0)")
    if not head.get("bfc_goodput_recovered", 0):
        failures.append("fault: BFC goodput did not recover after the last "
                        "link-up (bfc_goodput_recovered=0)")
    base_head = baseline.get("headline", {}) if baseline else {}
    cur_rec = head.get("bfc_recovery_us", -1)
    base_rec = base_head.get("bfc_recovery_us", -1)
    same_scale = bool(baseline) and current.get("scale") == baseline.get(
        "scale")
    rec_status = "ok"
    if same_scale and cur_rec > 0 and base_rec > 0:
        if cur_rec > base_rec * (1.0 + tolerance):
            rec_status = "REGRESSION"
            failures.append(
                f"fault: recovery latency {cur_rec:,.1f}us is beyond the "
                f"gate ({base_rec * (1.0 + tolerance):,.1f}us = baseline "
                f"{base_rec:,.1f}us x (1 + {tolerance:.2f}))")
    elif not same_scale:
        rec_status = "skipped (scale mismatch)"
    lines = ["## Fault-plane gate (ext_fault headline)", "",
             "| metric | baseline | this run | status |",
             "|---|---:|---:|---|"]

    def row(key, status):
        base_v = base_head.get(key)
        cur_v = head.get(key)
        lines.append("| {} | {} | {} | {} |".format(
            key,
            "-" if base_v is None else f"{base_v:,.6g}",
            "-" if cur_v is None else f"{cur_v:,.6g}",
            status))

    row("bfc_all_complete",
        "ok" if head.get("bfc_all_complete", 0) else "FAIL")
    row("bfc_goodput_recovered",
        "ok" if head.get("bfc_goodput_recovered", 0) else "FAIL")
    row("bfc_recovery_us", rec_status)
    row("bfc_blackholed", "info")
    row("bfc_buffer_p99_mb", "info")
    return failures, "\n".join(lines) + "\n"


def load_history_file(path):
    """Committed BENCH_history.json: {"runs": [{"scale":..., "topos":
    {...}}, ...]}, oldest first (every PR appends). Returns a list of
    (topos, scale). Corrupt or absent files degrade to no history —
    the gate must never wedge on its own record-keeping."""
    if not path:
        return []
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError):
        return []
    out = []
    for run in doc.get("runs", []):
        topos = run.get("topos", {})
        if topos:
            out.append((topos, run.get("scale")))
    return out


def rolling_baseline(committed, history_dir, limit, cur_scale=None,
                     history_file=None):
    """Overlays the committed per-topo baseline with the per-column
    median of the last `limit` history runs. Runs come from the
    committed history file first (oldest) and the cache directory
    second (files sort by name: CI writes zero-padded run numbers), so
    the window is the combined tail. History recorded at a different
    BFC_BENCH_SCALE than the current run is skipped — events/sec is
    scale-dependent, so mixing scales would blur the median for the few
    runs after a workflow scale change. The gated topo surface stays
    the committed one; history only refreshes the expected values."""
    entries = list(load_history_file(history_file))
    if history_dir:
        for path in sorted(glob.glob(os.path.join(history_dir, "*.json"))):
            try:
                topos, scale, _ = load_topos(path)
            except (OSError, ValueError):
                continue  # a corrupt cached artifact must not wedge the gate
            if topos:  # an empty artifact must not consume a window slot
                entries.append((topos, scale))
    usable = [topos for topos, scale in entries
              if not (cur_scale is not None and scale is not None
                      and scale != cur_scale)]
    usable = usable[-limit:]
    per_col = {}
    for topos in usable:
        for topo, v in topos.items():
            for col in COLUMNS:
                eps = v.get(col, 0)
                if eps > 0:
                    per_col.setdefault((topo, col), []).append(eps)
    effective = {t: dict(v) for t, v in committed.items()}
    for (topo, col), samples in per_col.items():
        if topo in effective and effective[topo].get(col, 0) > 0:
            effective[topo][col] = median(samples)
    return effective, len(usable)


def rss_baseline(committed_rows, committed_scale, history_dir, limit,
                 cur_scale=None, history_file=None):
    """Per-(topo, shards) rolling peak-RSS baseline: the median over the
    last `limit` scale-matched history runs. History-file runs may carry
    a "rows" list next to "topos" (older entries don't — they simply
    contribute nothing); cache-dir bench jsons carry engine.rows.
    Committed rows backstop pairs with no history, but ONLY on a scale
    match — RSS tracks workload size, so a full-scale committed number
    says nothing about a 0.05-scale CI run. Returns ({(topo, shards):
    kb}, n_history_runs_used)."""
    entries = []  # (rows, scale), oldest first
    if history_file:
        try:
            with open(history_file) as f:
                doc = json.load(f)
        except (OSError, ValueError):
            doc = {}
        for run in doc.get("runs", []):
            rows = run.get("rows", [])
            if rows:
                entries.append((rows, run.get("scale")))
    if history_dir:
        for path in sorted(glob.glob(os.path.join(history_dir, "*.json"))):
            rows, scale = load_rows(path)
            if rows:
                entries.append((rows, scale))
    usable = [rows for rows, scale in entries
              if not (cur_scale is not None and scale is not None
                      and scale != cur_scale)]
    usable = usable[-limit:]
    per_row = {}
    for rows in usable:
        for r in rows:
            kb = r.get("peak_rss_kb", 0)
            if kb > 0:
                per_row.setdefault((r.get("topo"), r.get("shards")),
                                   []).append(kb)
    base = {}
    if committed_rows and not (cur_scale is not None
                               and committed_scale is not None
                               and committed_scale != cur_scale):
        for r in committed_rows:
            kb = r.get("peak_rss_kb", 0)
            if kb > 0:
                base[(r.get("topo"), r.get("shards"))] = float(kb)
    for key, samples in per_row.items():
        base[key] = median(samples)
    return base, len(usable)


def gate_rss(current_rows, baseline, tolerance):
    """Memory gate: each current (topo, shards) row's peak_rss_kb must
    stay within `tolerance` growth of its baseline. One-sided by design
    — shrinkage is the goal, never a failure. Rows reporting 0 (no
    /proc on this platform) and rows with no baseline pass visibly.
    Returns (failures, table rows)."""
    failures = []
    table = []
    for r in current_rows:
        kb = r.get("peak_rss_kb", 0)
        if kb <= 0:
            continue
        key = (r.get("topo"), r.get("shards"))
        label = f"{key[0]}@{key[1]}sh"
        base = baseline.get(key)
        if base is None:
            table.append((label, 0, kb, None, "new (no baseline)"))
            continue
        delta = kb / base - 1.0
        status = "ok"
        if kb > base * (1.0 + tolerance):
            status = "RSS GROWTH"
            failures.append(
                f"{label}: peak RSS {kb:,} kB is {delta:+.1%} vs the "
                f"baseline {base:,.0f} kB (allowed +{tolerance:.0%})")
        table.append((label, base, kb, delta, status))
    return failures, table


def render_rss(table, tolerance, n_history):
    if not table:
        return ""
    src = (f"rolling median of last {n_history} runs" if n_history
           else "committed baseline (same scale)")
    lines = ["## Peak RSS per (topo, shards)", "",
             f"Gate: fail above +{tolerance:.0%} vs {src}; shrinkage "
             "never fails; rows without a scale-matched baseline pass "
             "as new. VmHWM is a process high-water mark, so later "
             "sweep points inherit earlier ones' peak.", "",
             "| row | baseline kB | this run kB | delta | status |",
             "|---|---:|---:|---:|---|"]
    for label, base, kb, delta, status in table:
        lines.append("| {} | {} | {} | {} | {} |".format(
            label,
            f"{base:,.0f}" if base else "-",
            f"{kb:,}",
            f"{delta:+.1%}" if delta is not None else "-",
            status))
    return "\n".join(lines) + "\n"


def render_engine_rows(rows):
    """Per-(topo, shards) fig15 rows as the job summary shows them: Mev/s
    beside wall time and the timing wheel's pending-event high-water mark.
    Render only, never gated. Mev/s counts events, so a change that stops
    scheduling dead events lowers it without slowing the run; wall time
    and wheel_hw say which happened."""
    if not rows:
        return ""
    lines = ["## Engine rows (not gated)", "",
             "Mev/s counts events: read it with wall time, since fewer "
             "events for the same simulation lowers Mev/s too.", "",
             "| row | events | wall s | Mev/s | wheel_hw |",
             "|---|---:|---:|---:|---:|"]
    for r in rows:
        lines.append("| {}@{}sh | {:,} | {:.3f} | {:.2f} | {:,} |".format(
            r.get("topo"), r.get("shards"), r.get("events", 0),
            r.get("wall_sec", 0), r.get("events_per_sec", 0) / 1e6,
            r.get("wheel_hw", 0)))
    return "\n".join(lines) + "\n"


SPARK_CHARS = "▁▂▃▄▅▆▇█"


def sparkline(values):
    """Unicode sparkline normalized to the series' own min..max (a flat
    series renders mid-scale)."""
    if not values:
        return ""
    lo, hi = min(values), max(values)
    if hi <= lo:
        return SPARK_CHARS[3] * len(values)
    span = len(SPARK_CHARS) - 1
    return "".join(SPARK_CHARS[int((v - lo) / (hi - lo) * span + 0.5)]
                   for v in values)


def render_trajectory(entries, current, cur_scale, limit=8):
    """Per-topo Mev/s trajectory over the committed history plus this
    run, as a markdown table with a sparkline column. `entries` is
    [(topos, scale)] oldest first (load_history_file's shape); history
    recorded at a different BFC_BENCH_SCALE is skipped, same rule as the
    rolling baseline. Returns "" when there is no usable history — a
    one-point trajectory says nothing."""
    usable = [topos for topos, scale in entries
              if not (cur_scale is not None and scale is not None
                      and scale != cur_scale)]
    if not usable:
        return ""
    usable = usable[-(limit - 1):] + [current]
    topo_names = []
    for topos in usable:
        for t in topos:
            if t not in topo_names:
                topo_names.append(t)
    lines = ["## Throughput trajectory (Mev/s, oldest -> newest)", "",
             f"Last {len(usable) - 1} recorded runs plus this one "
             f"(rightmost point), at scale {cur_scale}.", "",
             "| topo | Mev/s | spark |", "|---|---|---|"]
    for topo in topo_names:
        series = [topos[topo].get("shards1_events_per_sec", 0)
                  for topos in usable
                  if topos.get(topo, {}).get("shards1_events_per_sec", 0) > 0]
        if not series:
            continue
        cells = " ".join(f"{v / 1e6:.2f}" for v in series)
        lines.append(f"| {topo} | {cells} | {sparkline(series)} |")
    return "\n".join(lines) + "\n"


def gate(current, committed, tolerance, calibrate, hard_floor, pr2=None,
         optional=(), floors=None):
    """Returns (failures, rows). `current`/`committed` map topo ->
    {shards1_events_per_sec, deterministic}; rows are markdown cells.
    Topos in `optional` are fully gated when present but may be absent
    from the current run (opt-in sweeps like t3_16384, which
    fig15_scale only runs when BFC_FIG15_TOPOS names it). `floors`
    (topo map, default `committed`) anchors the hard floor: with a
    rolling-median baseline the tolerance band follows recent runs, but
    the floor stays pinned to the committed file of record so repeated
    within-tolerance regressions cannot ratchet the gate down
    indefinitely."""
    floors = floors if floors is not None else committed
    failures = []
    rows = []
    # A committed topo must appear in the current run: a sweep that
    # silently drops a fabric (stray BFC_FIG15_TOPOS, bench bug) must not
    # shrink the gated surface. Opt-in topos are the exception — a local
    # default-set run skips them by design, so they surface as a visible
    # "skipped" row instead of a false failure.
    for topo in committed:
        if topo not in current:
            if topo in optional:
                rows.append((topo, 0,
                             committed[topo].get("shards1_events_per_sec", 0),
                             0, None, "skipped (opt-in, not in this run)"))
            else:
                failures.append(f"{topo}: in committed baseline but missing "
                                "from the current run")
    ratios = {}
    for topo, cur in current.items():
        eps = cur.get("shards1_events_per_sec", 0)
        if eps <= 0:
            failures.append(f"{topo}: zero throughput")
        if not cur.get("deterministic", False):
            failures.append(f"{topo}: shard counts disagree (det=false)")
        base = committed.get(topo, {}).get("shards1_events_per_sec", 0)
        if base > 0 and eps > 0:
            ratios[topo] = eps / base
    factor = 1.0
    if calibrate and ratios:
        factor = min(1.0, max(ratios.values()))

    pr2 = pr2 or {}
    for topo, cur in sorted(current.items()):
        for col in COLUMNS:
            eps = cur.get(col, 0)
            base = committed.get(topo, {}).get(col, 0)
            if eps <= 0 and base <= 0:
                continue  # column swept by neither side
            nshards = col[len("shards"):col.index("_")]
            label = topo if col == COLUMNS[0] else f"{topo}@{nshards}sh"
            pr2_eps = (pr2.get(f"{topo}_events_per_sec", 0)
                       if col == COLUMNS[0] else 0)
            if base <= 0:
                rows.append((label, pr2_eps, base, eps, None,
                             "new (no baseline)"))
                continue
            if eps <= 0:
                # The committed baseline gates this column; a sweep that
                # stopped producing it must not shrink the gated surface.
                failures.append(
                    f"{label}: committed baseline records {base:,.0f} ev/s "
                    "but the current run has no such column")
                rows.append((label, pr2_eps, base, eps, None, "MISSING"))
                continue
            allowed = base * factor * (1.0 - tolerance)
            floor_base = floors.get(topo, {}).get(col, 0)
            floor = (floor_base if floor_base > 0 else base) * hard_floor
            delta = eps / base - 1.0
            status = "ok"
            if eps < allowed:
                status = "REGRESSION"
                failures.append(
                    f"{label}: {eps:,.0f} ev/s is below the gate "
                    f"({allowed:,.0f} = committed {base:,.0f} x "
                    f"machine-factor {factor:.2f} x (1 - {tolerance:.2f}))")
            elif eps < floor:
                status = "REGRESSION (hard floor)"
                failures.append(
                    f"{label}: {eps:,.0f} ev/s is below the hard floor "
                    f"({floor:,.0f} = {hard_floor:.2f} x committed "
                    f"{floor / hard_floor:,.0f})")
            rows.append((label, pr2_eps, base, eps, delta, status))
    return failures, rows, factor


def render(rows, factor, tolerance, calibrate, cur_scale, base_scale,
           n_history=0):
    lines = ["## Engine perf trajectory", ""]
    mode = (f"calibrated (machine factor {factor:.2f})"
            if calibrate else "raw")
    base = (f"rolling median of last {n_history} runs" if n_history
            else "committed baseline")
    lines.append(
        f"Gate: {mode}, tolerance {tolerance:.0%}, baseline: {base}; "
        f"current scale {cur_scale}, committed scale {base_scale}.")
    lines.append("")
    lines.append("| topo | PR-2 heap ev/s | baseline ev/s | this run ev/s "
                 "| delta | status |")
    lines.append("|---|---:|---:|---:|---:|---|")
    for topo, pr2_eps, base, eps, delta, status in rows:
        lines.append("| {} | {} | {} | {} | {} | {} |".format(
            topo,
            f"{pr2_eps:,.0f}" if pr2_eps else "-",
            f"{base:,.0f}" if base else "-",
            f"{eps:,.0f}",
            f"{delta:+.1%}" if delta is not None else "-",
            status))
    return "\n".join(lines) + "\n"


def self_test():
    committed = {
        "t1_128": {"shards1_events_per_sec": 4_000_000, "deterministic": True},
        "t3_1024": {"shards1_events_per_sec": 2_400_000, "deterministic": True},
    }

    def run(current, calibrate):
        failures, _, _ = gate(current, committed, tolerance=0.25,
                              calibrate=calibrate, hard_floor=0.25)
        return failures

    healthy = {
        "t1_128": {"shards1_events_per_sec": 3_900_000, "deterministic": True},
        "t3_1024": {"shards1_events_per_sec": 2_500_000, "deterministic": True},
        "t3_4096": {"shards1_events_per_sec": 2_400_000, "deterministic": True},
    }
    assert run(healthy, False) == [], "healthy run must pass (raw)"
    assert run(healthy, True) == [], "healthy run must pass (calibrated)"

    # Injected >25% drop on one topo: both modes must fail.
    regressed = dict(healthy)
    regressed["t3_1024"] = {"shards1_events_per_sec": 1_600_000,
                            "deterministic": True}
    assert run(regressed, False), "33% drop must fail (raw)"
    assert run(regressed, True), "relative 33% drop must fail (calibrated)"

    # Uniformly slower machine (-40% across the board): calibration
    # absorbs it, raw mode (same-machine contract) flags it.
    slow = {t: {"shards1_events_per_sec": int(v["shards1_events_per_sec"] * 0.6),
                "deterministic": True} for t, v in healthy.items()}
    assert run(slow, True) == [], "uniform slowness must pass calibrated"
    assert run(slow, False), "uniform 40% drop must fail raw"

    # Across-the-board collapse: the hard floor catches it even calibrated.
    collapse = {t: {"shards1_events_per_sec": 1, "deterministic": True}
                for t in healthy}
    assert run(collapse, True), "collapse must fail even calibrated"

    # Nondeterminism and zero throughput always fail.
    bad_det = dict(healthy)
    bad_det["t1_128"] = {"shards1_events_per_sec": 4_000_000,
                         "deterministic": False}
    assert run(bad_det, True), "det=false must fail"

    # A committed topo silently dropped from the sweep must fail.
    partial = {t: v for t, v in healthy.items() if t != "t3_1024"}
    assert run(partial, True), "missing committed topo must fail"

    # ...unless it is declared opt-in: then it shows as a skipped row,
    # but still gates normally whenever the sweep does include it.
    f_opt, rows_opt, _ = gate(partial, committed, tolerance=0.25,
                              calibrate=True, hard_floor=0.25,
                              optional=frozenset({"t3_1024"}))
    assert f_opt == [], "opt-in topo may be absent from the run"
    assert any("skipped" in r[-1] for r in rows_opt), \
        "absent opt-in topo must still be visible as a skipped row"
    slow_opt = dict(healthy)
    slow_opt["t3_1024"] = {"shards1_events_per_sec": 1_600_000,
                           "deterministic": True}
    f_opt2, _, _ = gate(slow_opt, committed, tolerance=0.25,
                        calibrate=True, hard_floor=0.25,
                        optional=frozenset({"t3_1024"}))
    assert f_opt2, "a present opt-in topo is gated like any other"

    # Rolling window: the median of the last 3 history runs replaces the
    # committed value, so (a) a regression vs recent runs fails even when
    # the committed point is stale-low, and (b) one noisy history outlier
    # does not move the gate.
    import tempfile
    with tempfile.TemporaryDirectory() as d:
        def put(name, eps):
            doc = {"engine": {"topos": {
                "t1_128": {"shards1_events_per_sec": eps,
                           "deterministic": True}}}}
            with open(os.path.join(d, name), "w") as f:
                json.dump(doc, f)
        put("run-00000001.json", 1_000_000)   # outside the window of 3
        put("run-00000002.json", 5_000_000)
        put("run-00000003.json", 4_800_000)   # <- median of the last 3
        put("run-00000004.json", 9_000_000)   # one hot outlier, absorbed
        effective, n = rolling_baseline(committed, d, 3)
        # A history file recorded at a different scale is skipped, not
        # mixed into the median (events/sec is scale-dependent).
        with open(os.path.join(d, "run-00000005.json"), "w") as f:
            json.dump({"engine": {"scale": 1.0, "topos": {
                "t1_128": {"shards1_events_per_sec": 50_000_000,
                           "deterministic": True}}}}, f)
        scaled, n_scaled = rolling_baseline(committed, d, 3, cur_scale=0.05)
        assert n_scaled == 3 and scaled["t1_128"][
            "shards1_events_per_sec"] == 5_000_000, \
            "off-scale history must not enter the window"
        assert n == 3, "window must keep the last 3 files only"
        assert effective["t1_128"]["shards1_events_per_sec"] == 5_000_000, \
            "median of {5.0M, 4.8M, 9.0M} is 5.0M"
        assert effective["t3_1024"] == committed["t3_1024"], \
            "topos without history keep the committed value"
        # The faster rolling baseline catches a drop the stale committed
        # value (4.0M) would have waved through.
        drooped = {"t1_128": {"shards1_events_per_sec": 3_500_000,
                              "deterministic": True},
                   "t3_1024": committed["t3_1024"]}
        f_raw, _, _ = gate(drooped, effective, tolerance=0.25,
                           calibrate=False, hard_floor=0.25)
        assert f_raw, "30% drop vs rolling median must fail"
        f_old, _, _ = gate(drooped, committed, tolerance=0.25,
                           calibrate=False, hard_floor=0.25)
        assert f_old == [], "...though the stale committed point missed it"
        # An empty/absent history dir degrades to the committed baseline.
        effective, n = rolling_baseline(committed, os.path.join(d, "none"), 3)
        assert n == 0 and effective == committed

    # Multi-shard columns gate like shards1: a scaling-path regression
    # fails even when sequential throughput is healthy, and a sweep that
    # silently drops a committed column fails.
    committed8 = {
        "t3_4096": {"shards1_events_per_sec": 400_000,
                    "shards8_events_per_sec": 1_300_000,
                    "shards16_events_per_sec": 1_250_000,
                    "deterministic": True},
    }

    def run8(current):
        failures, rows, _ = gate(current, committed8, tolerance=0.25,
                                 calibrate=False, hard_floor=0.25)
        return failures, rows

    healthy8 = {
        "t3_4096": {"shards1_events_per_sec": 410_000,
                    "shards8_events_per_sec": 1_280_000,
                    "shards16_events_per_sec": 1_300_000,
                    "deterministic": True},
    }
    f8, rows8 = run8(healthy8)
    assert f8 == [], "healthy multi-shard columns must pass"
    assert (any(r[0] == "t3_4096@8sh" for r in rows8) and
            any(r[0] == "t3_4096@16sh" for r in rows8)), \
        "multi-shard columns must be visible as their own rows"
    slow8 = {
        "t3_4096": {"shards1_events_per_sec": 410_000,
                    "shards8_events_per_sec": 800_000,  # -38% at 8 shards
                    "shards16_events_per_sec": 1_300_000,
                    "deterministic": True},
    }
    f8, _ = run8(slow8)
    assert any("@8sh" in m for m in f8), \
        "a scaling-path regression must fail with shards1 healthy"
    dropped8 = {
        "t3_4096": {"shards1_events_per_sec": 410_000,
                    "deterministic": True},
    }
    f8, _ = run8(dropped8)
    assert any("no such column" in m for m in f8), \
        "dropping a committed multi-shard column must fail"

    # The committed history file seeds the rolling window (it survives
    # cache eviction); cache-dir runs are newer and extend it, and the
    # per-column medians cover the multi-shard columns too.
    with tempfile.TemporaryDirectory() as d:
        hist = os.path.join(d, "BENCH_history.json")
        with open(hist, "w") as f:
            json.dump({"runs": [
                {"topos": {"t3_4096": {"shards1_events_per_sec": 440_000,
                                       "shards8_events_per_sec": 1_400_000,
                                       "deterministic": True}}},
                {"topos": {"t3_4096": {"shards1_events_per_sec": 460_000,
                                       "shards8_events_per_sec": 1_500_000,
                                       "deterministic": True}}},
            ]}, f)
        eff, n = rolling_baseline(committed8, None, 3, history_file=hist)
        assert n == 2, "file-only history must fill the window"
        assert eff["t3_4096"]["shards1_events_per_sec"] == 450_000
        assert eff["t3_4096"]["shards8_events_per_sec"] == 1_450_000, \
            "multi-shard columns take the rolling median too"
        assert eff["t3_4096"]["shards16_events_per_sec"] == 1_250_000, \
            "columns without history keep the committed value"
        cache = os.path.join(d, "cache")
        os.mkdir(cache)
        with open(os.path.join(cache, "run-00000001.json"), "w") as f:
            json.dump({"engine": {"topos": {"t3_4096": {
                "shards1_events_per_sec": 480_000,
                "deterministic": True}}}}, f)
        eff, n = rolling_baseline(committed8, cache, 3, history_file=hist)
        assert n == 3, "window = committed history + cache tail"
        assert eff["t3_4096"]["shards1_events_per_sec"] == 460_000, \
            "median of {440k, 460k, 480k} with cache runs newest"
        # A corrupt or absent history file degrades to dir-only history.
        eff, n = rolling_baseline(committed8, cache, 3,
                                  history_file=os.path.join(d, "no.json"))
        assert n == 1

    # The hard floor stays anchored to the *committed* value even when
    # the rolling median has already drifted far below it: a run inside
    # the tolerance band of a degraded median still fails the floor, so
    # successive within-tolerance regressions cannot compound forever.
    drifted_median = {
        "t1_128": {"shards1_events_per_sec": 1_200_000,
                   "deterministic": True},
        "t3_1024": committed["t3_1024"],
    }
    crawling = {
        "t1_128": {"shards1_events_per_sec": 950_000, "deterministic": True},
        "t3_1024": committed["t3_1024"],
    }
    f_floor, _, _ = gate(crawling, drifted_median, tolerance=0.25,
                         calibrate=False, hard_floor=0.25, floors=committed)
    assert any("hard floor" in m for m in f_floor), \
        "committed-anchored floor must catch median ratchet (4.0M -> 0.95M)"

    # Sparkline + trajectory table rendering.
    assert sparkline([]) == ""
    assert sparkline([5, 5, 5]) == SPARK_CHARS[3] * 3, \
        "flat series renders mid-scale"
    sp = sparkline([1, 4, 8])
    assert sp[0] == SPARK_CHARS[0] and sp[-1] == SPARK_CHARS[-1], \
        "sparkline normalizes to the series' own range"
    hist_entries = [
        ({"t1_128": {"shards1_events_per_sec": 4_000_000}}, 0.05),
        ({"t1_128": {"shards1_events_per_sec": 4_400_000},
          "t3_1024": {"shards1_events_per_sec": 2_000_000}}, 0.05),
        ({"t1_128": {"shards1_events_per_sec": 99_000_000}}, 1.0),
    ]
    cur = {"t1_128": {"shards1_events_per_sec": 4_200_000},
           "t3_1024": {"shards1_events_per_sec": 2_100_000}}
    traj = render_trajectory(hist_entries, cur, 0.05)
    assert "4.00 4.40 4.20" in traj, "series = history tail + current"
    assert "2.00 2.10" in traj, "a topo absent from old runs still plots"
    assert "99.00" not in traj, "off-scale history must not be plotted"
    assert render_trajectory([], cur, 0.05) == "", "no history -> no table"
    many = [({"t1_128": {"shards1_events_per_sec": 1_000_000 * (i + 1)}},
             None) for i in range(12)]
    t2 = render_trajectory(many, cur, 0.05, limit=8)
    assert " 5.00" not in t2 and "12.00" in t2, \
        "trajectory keeps only the window tail"

    # Memory gate, both directions: growth past the band fails, flat /
    # shrinking RSS passes (shrinkage is the goal — one-sided gate).
    com_rows = [{"topo": "t3_4096", "shards": 1, "peak_rss_kb": 1_400_000},
                {"topo": "t3_4096", "shards": 8, "peak_rss_kb": 1_430_000}]
    base, n = rss_baseline(com_rows, 1.0, None, 3, cur_scale=1.0)
    assert n == 0 and base[("t3_4096", 1)] == 1_400_000
    grown = [{"topo": "t3_4096", "shards": 1, "peak_rss_kb": 1_700_000},
             {"topo": "t3_4096", "shards": 8, "peak_rss_kb": 1_430_000}]
    ff, tab = gate_rss(grown, base, 0.15)
    assert any("t3_4096@1sh" in m and "peak RSS" in m for m in ff), \
        "+21% RSS on one row must fail"
    assert not any("@8sh" in m for m in ff), \
        "...without dragging the healthy row along"
    lean = [{"topo": "t3_4096", "shards": 1, "peak_rss_kb": 900_000},
            {"topo": "t3_4096", "shards": 8, "peak_rss_kb": 1_500_000}]
    ff, tab = gate_rss(lean, base, 0.15)
    assert ff == [], "shrinkage and within-band growth must pass"
    assert render_rss(tab, 0.15, 0).count("|") > 0 and \
        "t3_4096@1sh" in render_rss(tab, 0.15, 0), \
        "RSS rows must render for the job summary"
    # No baseline (new row, or zero-RSS platform): visible, never fatal.
    novel = [{"topo": "t3_65536", "shards": 1, "peak_rss_kb": 3_900_000},
             {"topo": "t1_128", "shards": 1, "peak_rss_kb": 0}]
    ff, tab = gate_rss(novel, base, 0.15)
    assert ff == [] and len(tab) == 1 and tab[0][-1] == "new (no baseline)", \
        "rows without a baseline pass as new; zero-RSS rows drop out"
    # Committed rows only backstop a same-scale run; the rolling window
    # (scale-matched) takes over and its median absorbs one outlier.
    base, n = rss_baseline(com_rows, 1.0, None, 3, cur_scale=0.05)
    assert n == 0 and base == {}, \
        "a full-scale committed RSS row must not gate a 0.05-scale run"
    with tempfile.TemporaryDirectory() as d:
        def put_rss(name, kb, scale=0.05):
            doc = {"engine": {"scale": scale, "rows": [
                {"topo": "t3_4096", "shards": 1, "peak_rss_kb": kb}]}}
            with open(os.path.join(d, name), "w") as f:
                json.dump(doc, f)
        put_rss("run-00000001.json", 90_000)
        put_rss("run-00000002.json", 100_000)
        put_rss("run-00000003.json", 400_000, scale=1.0)  # off-scale
        put_rss("run-00000004.json", 110_000)
        base, n = rss_baseline(com_rows, 1.0, d, 3, cur_scale=0.05)
        assert n == 3 and base == {("t3_4096", 1): 100_000}, \
            "RSS window: scale-matched cache runs only, per-row median"
        ff, _ = gate_rss([{"topo": "t3_4096", "shards": 1,
                           "peak_rss_kb": 130_000}], base, 0.15)
        assert ff, "+30% vs the rolling RSS median must fail"
        # A history-file run carrying rows seeds the window like the
        # throughput path; runs without rows contribute nothing.
        hist = os.path.join(d, "BENCH_history.json")
        with open(hist, "w") as f:
            json.dump({"runs": [
                {"scale": 0.05, "topos": {}},
                {"scale": 0.05, "rows": [{"topo": "t3_4096", "shards": 1,
                                          "peak_rss_kb": 104_000}]},
            ]}, f)
        base, n = rss_baseline([], None, None, 3, cur_scale=0.05,
                               history_file=hist)
        assert n == 1 and base == {("t3_4096", 1): 104_000}, \
            "history-file rows must seed the RSS window"

    # The per-row engine table renders wheel_hw and wall time beside
    # Mev/s, and is never gated.
    eng = render_engine_rows([{"topo": "t1_128", "shards": 4,
                               "events": 3_872_686, "wall_sec": 1.25,
                               "events_per_sec": 3_098_149,
                               "wheel_hw": 32_391}])
    assert "| t1_128@4sh | 3,872,686 | 1.250 | 3.10 | 32,391 |" in eng, \
        "engine rows must render Mev/s beside wall time and wheel_hw"
    assert render_engine_rows([]) == "", "no rows -> no table"

    # Fault-plane gate: invariants always, recovery latency only on a
    # scale match, and no fault section means no fault gating.
    fault_base = {"scale": 1.0, "headline": {
        "bfc_all_complete": 1, "bfc_goodput_recovered": 1,
        "bfc_recovery_us": 40.0, "bfc_blackholed": 120,
        "bfc_buffer_p99_mb": 3.2}}
    fault_ok = {"scale": 1.0, "headline": {
        "bfc_all_complete": 1, "bfc_goodput_recovered": 1,
        "bfc_recovery_us": 44.0, "bfc_blackholed": 130,
        "bfc_buffer_p99_mb": 3.4}}
    ff, rep = gate_fault(fault_ok, fault_base, 0.25)
    assert ff == [] and "bfc_recovery_us" in rep, \
        "healthy fault headline must pass and render"
    lost = {"scale": 1.0, "headline": dict(fault_ok["headline"],
                                           bfc_all_complete=0)}
    ff, _ = gate_fault(lost, fault_base, 0.25)
    assert any("lost flows" in m for m in ff), "lost flows must fail"
    stuck = {"scale": 1.0, "headline": dict(fault_ok["headline"],
                                            bfc_goodput_recovered=0)}
    ff, _ = gate_fault(stuck, fault_base, 0.25)
    assert any("did not recover" in m for m in ff), \
        "unrecovered goodput must fail"
    slow_rec = {"scale": 1.0, "headline": dict(fault_ok["headline"],
                                               bfc_recovery_us=80.0)}
    ff, _ = gate_fault(slow_rec, fault_base, 0.25)
    assert any("recovery latency" in m for m in ff), \
        "2x recovery latency must fail at matched scale"
    off_scale = {"scale": 0.05, "headline": dict(fault_ok["headline"],
                                                 bfc_recovery_us=80.0)}
    ff, rep = gate_fault(off_scale, fault_base, 0.25)
    assert ff == [] and "scale mismatch" in rep, \
        "recovery latency is not compared across scales"
    ff, rep = gate_fault({}, fault_base, 0.25)
    assert ff == [] and rep == "", "no fault section -> no fault gating"
    ff, _ = gate_fault(lost, {}, 0.25)
    assert ff, "invariants hold even with no committed fault baseline"

    print("perf_gate self-test ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--current", help="BENCH json from this run")
    ap.add_argument("--baseline", help="committed BENCH_engine.json")
    ap.add_argument("--tolerance", type=float,
                    default=float(os.environ.get("BFC_PERF_GATE_TOLERANCE",
                                                 "0.25")))
    ap.add_argument("--calibrate", action="store_true",
                    help="normalize for machine speed before gating")
    ap.add_argument("--hard-floor", type=float, default=0.25,
                    help="fail below this fraction of committed, always")
    ap.add_argument("--history",
                    help="directory of bench jsons from previous runs; "
                         "gates on the median of the last N instead of "
                         "the single committed baseline")
    ap.add_argument("--history-file",
                    help="committed BENCH_history.json (per-PR runs, "
                         "oldest first); read before --history so the "
                         "rolling window survives cache eviction")
    ap.add_argument("--history-limit", type=int, default=3,
                    help="rolling window size (default 3)")
    ap.add_argument("--optional-topos", default="t3_16384,t3_65536",
                    help="comma list of opt-in topos: gated when present, "
                         "allowed to be absent from the current run")
    ap.add_argument("--rss-tolerance", type=float,
                    default=float(os.environ.get("BFC_RSS_GATE_TOLERANCE",
                                                 "0.15")),
                    help="allowed peak-RSS growth per (topo, shards) row "
                         "vs the rolling baseline (default 0.15)")
    ap.add_argument("--summary", default=os.environ.get("GITHUB_STEP_SUMMARY"),
                    help="markdown file to append the trajectory diff to")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        self_test()
        return 0
    if not args.current or not args.baseline:
        ap.error("--current and --baseline (or --self-test) are required")

    current, cur_scale, _ = load_topos(args.current)
    committed, base_scale, pr2 = load_topos(args.baseline)
    if not current:
        print("perf_gate: no engine.topos in", args.current, file=sys.stderr)
        return 1
    baseline, n_history = rolling_baseline(committed, args.history,
                                           args.history_limit, cur_scale,
                                           history_file=args.history_file)

    optional = frozenset(
        t for t in args.optional_topos.split(",") if t)
    failures, rows, factor = gate(current, baseline, args.tolerance,
                                  args.calibrate, args.hard_floor, pr2,
                                  optional, floors=committed)
    report = render(rows, factor, args.tolerance, args.calibrate,
                    cur_scale, base_scale, n_history)
    traj = render_trajectory(load_history_file(args.history_file),
                             current, cur_scale)
    if traj:
        report += "\n" + traj
    cur_rows, _ = load_rows(args.current)
    eng_report = render_engine_rows(cur_rows)
    if eng_report:
        report += "\n" + eng_report
    com_rows, com_scale = load_rows(args.baseline)
    rss_base, n_rss = rss_baseline(com_rows, com_scale, args.history,
                                   args.history_limit, cur_scale,
                                   history_file=args.history_file)
    rss_failures, rss_table = gate_rss(cur_rows, rss_base,
                                       args.rss_tolerance)
    failures += rss_failures
    rss_report = render_rss(rss_table, args.rss_tolerance, n_rss)
    if rss_report:
        report += "\n" + rss_report
    fault_failures, fault_report = gate_fault(load_fault(args.current),
                                              load_fault(args.baseline),
                                              args.tolerance)
    failures += fault_failures
    if fault_report:
        report += "\n" + fault_report
    print(report)
    if args.summary:
        with open(args.summary, "a") as f:
            f.write(report)
    for msg in failures:
        print("perf_gate FAIL:", msg, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
