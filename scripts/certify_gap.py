#!/usr/bin/env python3
"""Run the full certification pipeline for the gap endpoint: `lagspec certify-gap`."""

import os
import sys

if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
    from lagspec.cli import main

    sys.exit(main(["certify-gap", *sys.argv[1:]]))
