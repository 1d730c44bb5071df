"""Line-protocol RBF scorer for the black-box workload.

Usage: python3 rbf_scorer.py GAMMA

Reads requests ``d a_1 .. a_d b_1 .. b_d`` from stdin, one per line, and
answers each with ``exp(-GAMMA * ||a - b||^2)`` on its own line.  Pure
Python so that start-up stays short.
"""

import math
import sys


def main():
    gamma = float(sys.argv[1])
    for line in sys.stdin:
        tokens = line.split()
        d = int(tokens[0])
        total = 0.0
        for i in range(1, d + 1):
            diff = float(tokens[i]) - float(tokens[i + d])
            total += diff * diff
        sys.stdout.write(repr(math.exp(-gamma * total)) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
