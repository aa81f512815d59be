#!/usr/bin/env python3
"""Shed-accuracy report: how often the deadline shed check is right.

Joins two live ``--trace`` runs of the same input — one without deadlines,
one with every request stamped ``--deadline-us D`` — by the request key
``(stream, seq)`` of their ``cat == "req"`` events. A request's latency is
its terminal event's timestamp minus its ``admit`` timestamp. Each request
of the deadline run lands in one bucket:

* false shed — shed, but its no-deadline run finished within D;
* true shed — shed, and its no-deadline run missed D as well;
* on-time serve — served within D;
* late serve — served, but after D.

The no-deadline run stands in for what the request would have cost had it
been admitted; both runs must see the same input, the same batching and
the same ``--streams`` setting, so that ``(stream, seq)`` names the same
request in both.

Exit status: 1 when false sheds exceed ``--max-false-share`` of the
requests whose no-deadline run met D (late serves are reported, not
gated), or when a trace is unreadable, dropped events, or the runs do not
cover the same requests; 0 otherwise.

Usage:
    shed_accuracy.py NO_DEADLINE_TRACE DEADLINE_TRACE --deadline-us D
                     [--max-false-share 0.01]
"""

import argparse
import json
import pathlib
import sys

TERMINAL_NAMES = ("deliver", "shed")


def request_outcomes(path):
    """Maps (stream, seq) -> (latency_us, shed) for every complete request
    chain of a live trace; raises ValueError on an unusable trace."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise ValueError(f"{path}: unreadable or invalid JSON: {err}") from err
    events = payload.get("traceEvents") if isinstance(payload, dict) else None
    if not isinstance(events, list):
        raise ValueError(f"{path}: missing traceEvents list")
    dropped = payload.get("otherData", {}).get("dropped", 0)
    if dropped:
        raise ValueError(f"{path}: trace dropped {dropped} events; outcomes would be partial")
    admits, terminals = {}, {}
    for event in events:
        if event.get("cat") != "req":
            continue
        key = (event["args"]["stream"], event["args"]["seq"])
        if event["name"] == "admit":
            admits[key] = event["ts"]
        elif event["name"] in TERMINAL_NAMES:
            terminals[key] = (event["ts"], event["name"] == "shed")
    missing = sorted(set(admits) ^ set(terminals))
    if missing:
        raise ValueError(f"{path}: {len(missing)} requests lack an admit or terminal event")
    return {key: (terminals[key][0] - admits[key], terminals[key][1]) for key in admits}


def classify(baseline, deadlined, deadline_us):
    """Counts the four buckets plus the requests whose no-deadline run met D."""
    counts = {"false_shed": 0, "true_shed": 0, "on_time": 0, "late": 0, "baseline_met": 0}
    for key, (latency_us, shed) in deadlined.items():
        baseline_met = baseline[key][0] <= deadline_us
        counts["baseline_met"] += baseline_met
        if shed:
            counts["false_shed" if baseline_met else "true_shed"] += 1
        else:
            counts["on_time" if latency_us <= deadline_us else "late"] += 1
    return counts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("no_deadline_trace", type=pathlib.Path)
    parser.add_argument("deadline_trace", type=pathlib.Path)
    parser.add_argument("--deadline-us", type=int, required=True)
    parser.add_argument("--max-false-share", type=float, default=0.01)
    options = parser.parse_args(argv)

    try:
        baseline = request_outcomes(options.no_deadline_trace)
        deadlined = request_outcomes(options.deadline_trace)
    except ValueError as err:
        print(f"FAIL {err}")
        return 1
    if set(baseline) != set(deadlined):
        print(
            f"FAIL the runs cover different requests ({len(baseline)} vs {len(deadlined)} "
            "keys); feed both the same input, batching and --streams"
        )
        return 1
    if not deadlined:
        print("FAIL the traces contain no requests")
        return 1

    counts = classify(baseline, deadlined, options.deadline_us)
    total = len(deadlined)
    rows = (
        ("false sheds", counts["false_shed"], "shed; the no-deadline run met D"),
        ("true sheds", counts["true_shed"], "shed; the no-deadline run missed D"),
        ("on-time serves", counts["on_time"], "served within D"),
        ("late serves", counts["late"], "served after D"),
    )
    print(f"shed accuracy at D = {options.deadline_us} us over {total} requests")
    print(f"{'bucket':<16}{'count':>8}{'share':>9}  meaning")
    for name, count, meaning in rows:
        print(f"{name:<16}{count:>8}{count / total:>9.2%}  {meaning}")
    met = counts["baseline_met"]
    false_share = counts["false_shed"] / met if met else 0.0
    print(
        f"false sheds are {false_share:.2%} of the {met} requests whose no-deadline run met D "
        f"(gate {options.max_false_share:.2%})"
    )
    if false_share > options.max_false_share:
        print("FAIL false sheds exceed the gate")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
