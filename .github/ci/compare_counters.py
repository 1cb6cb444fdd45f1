#!/usr/bin/env python3
"""Compares the what-if lookup counters of two dta_cli --metrics-json files.

Usage: compare_counters.py REFERENCE OTHER [--tenants N]

The counters below do not depend on threads, shards, transport, faults or
tenants: a batch that prices a pair twice or skips one shows up here.
OTHER's counters must equal REFERENCE's; with --tenants N, each tenant's
counters (the "tenant.t<i>." names of a --tenants N run) must.
"""

import argparse
import json
import sys

NAMES = ["whatif.lookups", "whatif.calls", "whatif.cache_hits",
         "whatif.derived_answers", "whatif.calls_saved"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("reference")
    parser.add_argument("other")
    parser.add_argument("--tenants", type=int, default=0)
    args = parser.parse_args()
    with open(args.reference) as f:
        reference = json.load(f)["counters"]
    with open(args.other) as f:
        other = json.load(f)["counters"]
    prefixes = ["tenant.t%d." % i for i in range(args.tenants)] or [""]
    diff = [(p, n) for p in prefixes for n in NAMES
            if reference.get(n) != other.get(p + n)]
    for prefix, name in diff:
        print("%s%s: %s has %s, %s has %s" % (
            prefix, name, args.reference, reference.get(name), args.other,
            other.get(prefix + name)))
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
