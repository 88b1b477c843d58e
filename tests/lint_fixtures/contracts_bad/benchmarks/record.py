"""Drifted fixture: the gate reads fields the recorder never writes."""


def record(args):
    results = {}
    for name in args.workloads:
        results[name] = {"min_s": 1.0}
    payload = {
        "workloads": results,
        "steps": args.steps,
    }
    return payload


def compare(args):
    baseline, candidate = args.recordings
    base, cand = baseline["workloads"]["a"], candidate["workloads"]["a"]
    return candidate["derived"], base["min_s"], cand["fingerprint_sha"]
