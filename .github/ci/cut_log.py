#!/usr/bin/env python3
"""Keeps the first K records of a DTAS3 checkpoint log.

Usage: cut_log.py LOG K OUT

Each record is "DTAS3 <kind> <payload-bytes> <checksum>\\n<payload>\\n"
(dta/checkpoint.h). OUT gets the first K records of LOG byte for byte, as a
session killed right after its K-th checkpoint write leaves the file, so a
scripted run can resume from every phase boundary.
"""

import sys


def main():
    if len(sys.argv) != 4:
        sys.exit(__doc__.strip().splitlines()[2])
    log, keep, out = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    with open(log, "rb") as f:
        data = f.read()
    end = 0
    for record in range(1, keep + 1):
        newline = data.find(b"\n", end)
        header = data[end:newline].split() if newline >= 0 else []
        if len(header) != 4 or header[0] != b"DTAS3":
            sys.exit(f"{log}: record {record} has no DTAS3 header")
        end = newline + 1 + int(header[2]) + 1
        if end > len(data):
            sys.exit(f"{log}: record {record} is torn")
    with open(out, "wb") as f:
        f.write(data[:end])


if __name__ == "__main__":
    main()
