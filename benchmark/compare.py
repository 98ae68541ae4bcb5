#!/usr/bin/env python3
"""Compare two sets of sppbench results (files written by `sppbench --out`).

    compare.py SET_A SET_B [--other-seed]

For every workload in both sets, every metric that carries a bound must not
differ between the sets by more than that bound (relative to SET_A; a bound
of 0 means the values must be equal), and every metric marked exact must be
identical — unless the sets were made with different seeds (--other-seed),
where counts legitimately differ. Prints one line per end-to-end metric and
exits 1 if any check fails.
"""
import json
import sys


def load(path):
    with open(path) as f:
        doc = json.load(f)
    return {run["workload"]: run for run in doc["runs"]}


def main():
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    other_seed = "--other-seed" in sys.argv
    if len(args) != 2:
        sys.exit(__doc__)
    a_set, b_set = load(args[0]), load(args[1])
    bad = 0
    for workload in a_set:
        if workload not in b_set:
            print(f"{workload}: missing from {args[1]}")
            bad += 1
            continue
        a_run, b_run = a_set[workload], b_set[workload]
        print(f"== {workload}  seeds {a_run['seed']}/{b_run['seed']}  "
              f"rounds {a_run['rounds']}/{b_run['rounds']}  "
              f"failed {a_run['failed']}/{b_run['failed']} of "
              f"{a_run['attempted']}/{b_run['attempted']}")
        for side, run in (("A", a_run), ("B", b_run)):
            if run["failed"] != 0:
                print(f"  FAIL set {side} has {run['failed']} failed checks")
                bad += 1
        exact_same = exact_total = 0
        for name, a in a_run["metrics"].items():
            b = b_run["metrics"].get(name)
            if b is None:
                print(f"  FAIL {name}: missing from set B")
                bad += 1
                continue
            av, bv = a["value"], b["value"]
            if "bound" in a:
                bound = a["bound"]
                if av is None or bv is None:
                    diff, ok = float("nan"), False
                elif av == bv:
                    diff, ok = 0.0, True
                elif av == 0:
                    diff, ok = float("inf"), False
                else:
                    diff = abs(bv - av) / abs(av)
                    ok = diff <= bound
                verdict = "ok  " if ok else "FAIL"
                print(f"  {verdict} {name:<16} A {av:>16.4f}  B {bv:>16.4f}  "
                      f"differ {diff:7.4f}  bound {bound}")
                bad += not ok
            elif a.get("exact") and not other_seed:
                exact_total += 1
                if av == bv:
                    exact_same += 1
                else:
                    print(f"  FAIL {name}: exact count differs, A {av} B {bv}")
                    bad += 1
        if not other_seed:
            print(f"  exact counts identical: {exact_same}/{exact_total}")
    print("repeatable within bounds" if bad == 0 else f"{bad} check(s) failed")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
