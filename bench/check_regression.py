#!/usr/bin/env python3
"""CI benchmark-regression gate.

Compares the BENCH_*.json files emitted by the bench binaries (run with
--json, or with FDR_BENCH_JSON=1 in the environment) against the tracked
baselines in bench/baselines.json:

    python3 bench/check_regression.py --dir build/bench

Exits non-zero when any tracked metric regresses past its threshold
(default 25%). Entries with "min_cpus" are skipped on machines with fewer
CPUs — e.g. the engine's 4-thread speedup targets only mean something on
>=4-core runners. `--write-baselines` refreshes the baseline values in
place from the current run (keeping directions/thresholds), which is how
the checked-in numbers get updated after an intentional perf change.

Zero and near-zero baselines get special handling: a relative threshold
on a ~0 baseline is either vacuous (direction "higher": every value
passes) or unsatisfiable (direction "lower": any noise fails), so such
entries must declare an "abs_tolerance" and are compared absolutely
(baseline +/- abs_tolerance); a near-zero baseline without one is
reported as a configuration failure instead of passing silently.

`--self-test` runs the gate's own unit checks (no benchmark files
needed); CI invokes it before trusting the gate's verdict.

Stdlib only: no third-party dependencies.
"""

import argparse
import json
import os
import sys
import tempfile

# Baselines closer to zero than this are meaningless for *relative*
# comparison; they must carry an explicit "abs_tolerance".
NEAR_ZERO = 1e-9


def load_metrics(path):
    with open(path) as f:
        report = json.load(f)
    return report, {m["name"]: m["value"] for m in report.get("metrics", [])}


def evaluate(config, reports_dir, write_baselines=False):
    """Checks every tracked entry; returns (rows, failures).

    rows: (name, baseline, value, verdict) tuples for printing.
    Mutates config entries in place when write_baselines is set.
    """
    default_threshold = config.get("default_threshold", 0.25)
    reports = {}
    failures = 0
    rows = []
    for entry in config["tracked"]:
        name = entry["name"]
        fname = entry["file"]
        threshold = entry.get("threshold", default_threshold)
        direction = entry.get("direction", "lower")
        baseline = entry["baseline"]
        abs_tolerance = entry.get("abs_tolerance")

        path = os.path.join(reports_dir, fname)
        if fname not in reports:
            if not os.path.exists(path):
                rows.append((name, baseline, None, "MISSING FILE " + fname))
                failures += 1
                continue
            reports[fname] = load_metrics(path)
        report, metrics = reports[fname]

        # Baselines are calibrated from FDR_BENCH_SMOKE=1 runs; comparing
        # (or rebasing) against full-size metrics would be apples to
        # oranges — e.g. us-per-tuple numbers grow superlinearly with n.
        if not report.get("smoke"):
            rows.append((name, baseline, metrics.get(name),
                         "NON-SMOKE RUN (re-run with FDR_BENCH_SMOKE=1)"))
            failures += 1
            continue

        min_cpus = entry.get("min_cpus")
        if min_cpus is not None and report.get("cpus", 0) < min_cpus:
            rows.append((name, baseline, metrics.get(name),
                         "SKIP (needs >=%d cpus, have %s)" %
                         (min_cpus, report.get("cpus"))))
            continue
        if name not in metrics:
            rows.append((name, baseline, None, "MISSING METRIC"))
            failures += 1
            continue

        value = metrics[name]
        if write_baselines:
            # Rebase WITH headroom, never with the raw measurement: shared
            # CI runners are slower and noisier than whatever quiet machine
            # the refresh ran on. 'lower' timings get 2x slack, 'higher'
            # floors (speedups) are relaxed to 80% of what was measured —
            # but never below an entry's "min_baseline", which records a
            # bar the project has committed to (e.g. the columnar >=1.3x
            # acceptance speedup): a rebase may loosen noise headroom, not
            # quietly lower the bar itself.
            margin = entry.get("rebase_margin",
                               2.0 if direction == "lower" else 0.8)
            rebased = round(value * margin, 6)
            min_baseline = entry.get("min_baseline")
            if min_baseline is not None and direction == "higher":
                rebased = max(rebased, min_baseline)
            entry["baseline"] = rebased
            rows.append((name, entry["baseline"], value, "REBASED"))
            continue
        if abs(baseline) < NEAR_ZERO:
            # Relative comparison against ~0 is vacuous or unsatisfiable;
            # require an absolute tolerance.
            if abs_tolerance is None:
                rows.append((name, baseline, value,
                             "ZERO BASELINE (add abs_tolerance)"))
                failures += 1
                continue
            if direction == "lower":
                limit = baseline + abs_tolerance
                ok = value <= limit
            else:
                limit = baseline - abs_tolerance
                ok = value >= limit
            verdict = "OK (abs)" if ok else (
                "REGRESSED (%s %.4g)" %
                (">" if direction == "lower" else "<", limit))
        elif direction == "lower":
            limit = baseline * (1 + threshold)
            ok = value <= limit
            verdict = "OK" if ok else "REGRESSED (> %.4g)" % limit
        else:
            limit = baseline * (1 - threshold)
            ok = value >= limit
            verdict = "OK" if ok else "REGRESSED (< %.4g)" % limit
        if not ok:
            failures += 1
        rows.append((name, baseline, value, verdict))
    return rows, failures


def validate_config(config):
    """Sanity-checks a baselines config; returns a list of problems.

    Catches the misconfigurations that would otherwise surface as a
    confusing gate verdict (or no verdict at all): missing required
    fields, unknown directions, near-zero baselines without an
    abs_tolerance, and duplicate tracked names.
    """
    problems = []
    seen = set()
    for i, entry in enumerate(config.get("tracked", [])):
        where = "tracked[%d]" % i
        for field in ("file", "name", "baseline"):
            if field not in entry:
                problems.append("%s: missing %r" % (where, field))
        name = entry.get("name")
        if name in seen:
            problems.append("%s: duplicate name %r" % (where, name))
        seen.add(name)
        if entry.get("direction", "lower") not in ("lower", "higher"):
            problems.append("%s (%s): bad direction %r" %
                            (where, name, entry.get("direction")))
        baseline = entry.get("baseline")
        if (isinstance(baseline, (int, float)) and
                abs(baseline) < NEAR_ZERO and
                entry.get("abs_tolerance") is None):
            problems.append("%s (%s): near-zero baseline needs abs_tolerance"
                            % (where, name))
        min_baseline = entry.get("min_baseline")
        if min_baseline is not None:
            if entry.get("direction", "lower") != "higher":
                problems.append("%s (%s): min_baseline only applies to "
                                "direction 'higher'" % (where, name))
            elif (isinstance(baseline, (int, float)) and
                  baseline < min_baseline):
                problems.append("%s (%s): baseline %s below its "
                                "min_baseline %s" %
                                (where, name, baseline, min_baseline))
    return problems


def print_rows(rows):
    width = max(len(r[0]) for r in rows) if rows else 10
    print("%-*s  %12s  %12s  %s" % (width, "metric", "baseline", "value",
                                    "verdict"))
    for name, baseline, value, verdict in rows:
        value_s = "%.4g" % value if value is not None else "-"
        print("%-*s  %12.4g  %12s  %s" % (width, name, baseline, value_s,
                                          verdict))


def self_test():
    """Unit checks for the gate itself, exercised on synthetic reports."""

    def run(entries, metrics, smoke=True, cpus=8):
        with tempfile.TemporaryDirectory() as tmp:
            with open(os.path.join(tmp, "BENCH_t.json"), "w") as f:
                json.dump({"experiment": "t", "cpus": cpus, "smoke": smoke,
                           "metrics": [{"name": k, "value": v, "unit": ""}
                                       for k, v in metrics.items()]}, f)
            config = {"default_threshold": 0.25, "tracked": entries}
            rows, failures = evaluate(config, tmp)
            return {name: verdict for name, _, _, verdict in rows}, failures

    def entry(name, baseline, **kwargs):
        out = {"file": "BENCH_t.json", "name": name, "baseline": baseline}
        out.update(kwargs)
        return out

    checks = 0

    # Within-threshold values pass; past-threshold values fail, both ways.
    verdicts, failures = run(
        [entry("a", 10.0), entry("b", 10.0, direction="higher")],
        {"a": 12.0, "b": 8.0})
    assert failures == 0, verdicts
    verdicts, failures = run(
        [entry("a", 10.0), entry("b", 10.0, direction="higher")],
        {"a": 13.0, "b": 7.0})
    assert failures == 2 and "REGRESSED" in verdicts["a"], verdicts
    checks += 1

    # A zero baseline must not pass vacuously (direction "higher" would
    # otherwise accept any value) nor divide/fail on noise — without an
    # abs_tolerance it is flagged as misconfigured.
    verdicts, failures = run(
        [entry("z", 0.0, direction="higher")], {"z": 0.0})
    assert failures == 1 and "ZERO BASELINE" in verdicts["z"], verdicts
    checks += 1

    # With abs_tolerance, zero baselines compare absolutely.
    verdicts, failures = run(
        [entry("z", 0.0, direction="lower", abs_tolerance=0.5)], {"z": 0.4})
    assert failures == 0, verdicts
    verdicts, failures = run(
        [entry("z", 0.0, direction="lower", abs_tolerance=0.5)], {"z": 0.6})
    assert failures == 1, verdicts
    verdicts, failures = run(
        [entry("z", 0.0, direction="higher", abs_tolerance=0.5)],
        {"z": -0.6})
    assert failures == 1, verdicts
    checks += 1

    # Non-smoke reports are rejected; missing metrics fail; min_cpus skips.
    verdicts, failures = run([entry("a", 10.0)], {"a": 10.0}, smoke=False)
    assert failures == 1 and "NON-SMOKE" in verdicts["a"], verdicts
    verdicts, failures = run([entry("missing", 10.0)], {"a": 10.0})
    assert failures == 1 and "MISSING METRIC" in verdicts["missing"], verdicts
    verdicts, failures = run(
        [entry("a", 10.0, min_cpus=64)], {"a": 99.0}, cpus=2)
    assert failures == 0 and "SKIP" in verdicts["a"], verdicts
    checks += 1

    # Config validation: structural problems are reported before the gate
    # is allowed to pass/fail anything (main() refuses to evaluate a
    # config with problems).
    assert validate_config({"tracked": [entry("a", 1.0)]}) == []
    problems = validate_config({"tracked": [
        {"file": "BENCH_t.json", "baseline": 1.0},           # no name
        entry("dup", 1.0), entry("dup", 2.0),                # duplicate
        entry("bad", 1.0, direction="sideways"),             # bad direction
        entry("zero", 0.0, direction="higher"),              # near-zero
        entry("mb1", 1.0, min_baseline=1.5),                 # wrong direction
        entry("mb2", 1.0, direction="higher",
              min_baseline=1.5),                             # below the bar
    ]})
    assert len(problems) == 6, problems
    checks += 1

    # The checked-in baselines config must itself validate, and it must
    # gate the grouping-bound span recursion (bench_hotpath's columnar
    # section) by its absolute per-tuple cost.
    baselines_path = os.path.join(os.path.dirname(__file__),
                                  "baselines.json")
    with open(baselines_path) as f:
        repo_config = json.load(f)
    problems = validate_config(repo_config)
    assert problems == [], problems
    tracked = {e["name"]: e for e in repo_config["tracked"]}

    def committed_floor(entry_cfg):
        # The floor a rebase can never go below: min_baseline is the
        # committed bar (rebases clamp to it), threshold the noise slack.
        return entry_cfg["min_baseline"] * (
            1 - entry_cfg.get("threshold",
                              repo_config.get("default_threshold", 0.25)))

    for workload in ("office", "deep"):
        grouping = tracked.get("hotpath.%s_columnar_us_per_tuple" % workload)
        assert grouping is not None, "baselines.json must track the " \
            "%s grouping-bound span cost" % workload
        assert grouping.get("direction") == "lower", grouping
    checks += 1

    # The solver-backend gates (bench_prop33 / bench_sec44): the ILP B&B
    # must keep proving optimality on conflicted cores >= 120 (3x the
    # historical exact_guard of 40) and the bnb keep/delete search on
    # cores >= 184 — min_baseline commits each bar so a rebase can loosen
    # noise headroom but never the capability itself —
    # and the LP-rounding certified-ratio limit (what the gate actually
    # enforces: baseline*(1+threshold)) must stay within the factor-2
    # a-priori guarantee, so a rebase can never quietly accept a cover
    # worse than the theory allows.
    default_threshold = repo_config.get("default_threshold", 0.25)
    ilp = tracked.get("prop33.ilp_solved_conflicted_tuples")
    assert ilp is not None, "baselines.json must track the ILP solved-size"
    assert ilp.get("direction") == "higher", ilp
    assert ilp.get("min_baseline", 0) >= 120, ilp
    assert ilp["baseline"] * (
        1 - ilp.get("threshold", default_threshold)) >= 120, ilp
    bnb = tracked.get("prop33.bnb_solved_conflicted_tuples")
    assert bnb is not None, "baselines.json must track the bnb solved-size"
    assert bnb.get("direction") == "higher", bnb
    assert bnb.get("min_baseline", 0) >= 184, bnb
    assert bnb["baseline"] * (
        1 - bnb.get("threshold", default_threshold)) >= 184, bnb
    lp = tracked.get("sec44.lp_rounding_worst_ratio")
    assert lp is not None, "baselines.json must track the LP-rounding ratio"
    assert lp.get("direction") == "lower", lp
    assert lp["baseline"] * (
        1 + lp.get("threshold", default_threshold)) <= 2.0 + 1e-9, lp
    checks += 1

    # The incremental-repair gates. The subset and update splices are each
    # gated on their own latency (absolute 'lower' entries). As a ratio,
    # the subset splice commits only "never slower than a full re-plan"
    # (min_baseline 1.0, less the usual noise slack): the re-plan it
    # divides by is cheap enough (its content hash is a small share of it)
    # that a larger ratio bar would gate noise. The update path (cell-edit
    # recipes) keeps its >=2x ratio floor, and
    # the span-ported Section-4 routes must stay >=1.5x over the preserved
    # hash-map reference, so the port can never quietly regress to
    # hash-map speed.
    sdelta = tracked.get("service.delta_speedup")
    assert sdelta is not None, "baselines.json must track the subset " \
        "delta speedup"
    assert sdelta.get("direction") == "higher", sdelta
    assert sdelta.get("min_baseline", 0) >= 1.0, sdelta
    assert committed_floor(sdelta) >= 0.75, sdelta
    sdelta_us = tracked.get("service.delta_us_per_request")
    assert sdelta_us is not None, "baselines.json must track the subset " \
        "delta latency"
    assert sdelta_us.get("direction") == "lower", sdelta_us
    udelta = tracked.get("service.udelta_speedup")
    assert udelta is not None, "baselines.json must track the update " \
        "delta speedup"
    assert udelta.get("direction") == "higher", udelta
    assert committed_floor(udelta) >= 2.0, udelta
    udelta_us = tracked.get("service.udelta_us_per_request")
    assert udelta_us is not None, "baselines.json must track the update " \
        "delta latency"
    assert udelta_us.get("direction") == "lower", udelta_us
    # Beyond the subset splice inside it, an update splice costs one
    # freshened edit per deleted row (Corollary 4.6): measured against that
    # subset splice on the same delta, its gate limit must stay <= 2.5.
    udelta_ratio = tracked.get("service.udelta_over_delta")
    assert udelta_ratio is not None, "baselines.json must track the " \
        "update splice over subset splice ratio"
    assert udelta_ratio.get("direction") == "lower", udelta_ratio
    assert udelta_ratio["baseline"] * (
        1 + udelta_ratio.get("threshold", default_threshold)) <= 2.5 + 1e-9, \
        udelta_ratio
    span = tracked.get("urepair.span_speedup")
    assert span is not None, "baselines.json must track the urepair " \
        "span speedup"
    assert span.get("direction") == "higher", span
    assert span.get("file") == "BENCH_E9.json", span
    assert committed_floor(span) >= 1.5, span
    checks += 1

    # The cache's reason to exist: a warm hit must cost no more than
    # computing the repair directly, so the gate limit on hit / direct
    # (baseline*(1+threshold)) must stay <= 1; and the cold content-hash
    # cost, which the per-Table memo hides from repeated requests, must
    # stay tracked.
    hit_ratio = tracked.get("service.hit_over_direct")
    assert hit_ratio is not None, "baselines.json must track the warm " \
        "hit over direct repair ratio"
    assert hit_ratio.get("direction") == "lower", hit_ratio
    assert hit_ratio["baseline"] * (
        1 + hit_ratio.get("threshold", default_threshold)) <= 1.0 + 1e-9, \
        hit_ratio
    # An update hit writes ids recorded on its pool instead of re-interning
    # every edit text, so it must stay far below a direct update repair:
    # gate limit <= 0.15.
    uhit_ratio = tracked.get("service.uhit_over_direct")
    assert uhit_ratio is not None, "baselines.json must track the warm " \
        "update hit over direct repair ratio"
    assert uhit_ratio.get("direction") == "lower", uhit_ratio
    assert uhit_ratio["baseline"] * (
        1 + uhit_ratio.get("threshold", default_threshold)) <= 0.15 + 1e-9, \
        uhit_ratio
    # A cold update miss answers from the update its planner run already
    # wrote, so it must stay close to a direct update repair: gate limit
    # <= 1.15.
    umiss_ratio = tracked.get("service.umiss_over_direct")
    assert umiss_ratio is not None, "baselines.json must track the cold " \
        "update miss over direct repair ratio"
    assert umiss_ratio.get("direction") == "lower", umiss_ratio
    assert umiss_ratio["baseline"] * (
        1 + umiss_ratio.get("threshold", default_threshold)) <= 1.15 + 1e-9, \
        umiss_ratio
    content_hash = tracked.get("storage.content_hash_us_per_row")
    assert content_hash is not None, "baselines.json must track the cold " \
        "content-hash cost"
    assert content_hash.get("direction") == "lower", content_hash
    checks += 1

    # The audit every cold update run ends with: Satisfies on the 8192-row
    # Office update (bench_hotpath), whose two-attribute lhs groups over
    # thousands of fresh values, must stay gated by its per-row cost.
    satisfies = tracked.get("storage.satisfies_us_per_row")
    assert satisfies is not None, "baselines.json must track the " \
        "Satisfies audit cost"
    assert satisfies.get("direction") == "lower", satisfies
    assert satisfies.get("file") == "BENCH_hotpath.json", satisfies
    checks += 1

    # Plan capture rides on every cold subset miss, so what it adds to the
    # plan is gated on both top-level routes the served benchmark sends
    # (lhs marriage and common lhs): the gate limit baseline*(1+threshold)
    # on capture-over-plan must stay <= 1.10.
    for route in ("marriage", "office"):
        capture = tracked.get("srepair.capture_over_plan_%s" % route)
        assert capture is not None, "baselines.json must track the %s " \
            "plan-capture cost" % route
        assert capture.get("direction") == "lower", capture
        assert capture["baseline"] * (
            1 + capture.get("threshold", default_threshold)) <= 1.10 + 1e-9, \
            capture
    checks += 1

    # The soft-FD gates (bench_soft_repair): the planner's throughput must
    # stay tracked, and the light-profile cost ratio's gate limit
    # (baseline*(1+threshold)) must stay <= 1 — softening constraints can
    # never cost more than the all-hard optimum, so a rebase can never
    # quietly accept a soft planner that lost that guarantee.
    soft_us = tracked.get("soft.office_us_per_tuple")
    assert soft_us is not None, "baselines.json must track the soft " \
        "planner throughput"
    assert soft_us.get("direction") == "lower", soft_us
    assert soft_us.get("file") == "BENCH_soft.json", soft_us
    soft_ratio = tracked.get("soft.light_cost_over_hard")
    assert soft_ratio is not None, "baselines.json must track the soft " \
        "light-cost ratio"
    assert soft_ratio.get("direction") == "lower", soft_ratio
    assert soft_ratio["baseline"] * (
        1 + soft_ratio.get("threshold", default_threshold)) <= 1.0 + 1e-9, \
        soft_ratio
    checks += 1

    # Rebase applies headroom (2x for lower, 0.8x for higher) but never
    # lowers a 'higher' baseline below its committed min_baseline.
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "BENCH_t.json"), "w") as f:
            json.dump({"experiment": "t", "cpus": 8, "smoke": True,
                       "metrics": [{"name": "a", "value": 3.0, "unit": ""},
                                   {"name": "b", "value": 10.0, "unit": ""},
                                   {"name": "c", "value": 1.5, "unit": ""}]},
                      f)
        config = {"tracked": [
            entry("a", 1.0),
            entry("b", 1.0, direction="higher"),
            entry("c", 1.4, direction="higher", min_baseline=1.3),
        ]}
        rows, failures = evaluate(config, tmp, write_baselines=True)
        assert failures == 0, rows
        assert config["tracked"][0]["baseline"] == 6.0, config
        assert config["tracked"][1]["baseline"] == 8.0, config
        # 1.5 * 0.8 = 1.2 would drop below the committed 1.3 bar: clamped.
        assert config["tracked"][2]["baseline"] == 1.3, config
    checks += 1

    print("self-test OK (%d check groups)" % checks)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baselines",
                        default=os.path.join(os.path.dirname(__file__),
                                             "baselines.json"))
    parser.add_argument("--dir", default="build/bench",
                        help="directory holding the BENCH_*.json outputs")
    parser.add_argument("--write-baselines", action="store_true",
                        help="rewrite baseline values from the current run")
    parser.add_argument("--self-test", action="store_true",
                        help="run the gate's own unit checks and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    with open(args.baselines) as f:
        config = json.load(f)

    # Structural problems fail the gate up front: a typoed direction or a
    # near-zero baseline without tolerance must never silently pass.
    problems = validate_config(config)
    if problems:
        for problem in problems:
            print("config error: %s" % problem)
        print("\n%d problem(s) in %s" % (len(problems), args.baselines))
        return 1

    rows, failures = evaluate(config, args.dir,
                              write_baselines=args.write_baselines)
    print_rows(rows)

    if args.write_baselines:
        if failures:
            print("\nrefusing to rewrite baselines: %d tracked metric(s) "
                  "missing from %s" % (failures, args.dir))
            return 1
        with open(args.baselines, "w") as f:
            json.dump(config, f, indent=2)
            f.write("\n")
        print("baselines rewritten: %s" % args.baselines)
        return 0

    if failures:
        print("\n%d tracked benchmark(s) regressed or missing" % failures)
        return 1
    print("\nall tracked benchmarks within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
