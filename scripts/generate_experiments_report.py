"""Regenerate the measured tables embedded in EXPERIMENTS.md.

Runs every row of the experiment table
(:mod:`repro.bench.registry`) at its ``full`` scale and prints a markdown
report to stdout:

    python scripts/generate_experiments_report.py > /tmp/report.md

With ``--json`` each experiment is emitted as a JSON document instead
(title, rows and the run's exact ``work`` counts: the same serialisation
as ``python -m repro experiment <name> --json``), for scripted consumers
that would otherwise scrape the tables.
"""

import argparse
import sys

from repro.bench.registry import EXPERIMENTS
from repro.bench.tables import rows_to_json


def emit_markdown(title, columns, rows):
    print(f"### {title}\n")
    print("| " + " | ".join(columns) + " |")
    print("|" + "---|" * len(columns))
    for row in rows:
        cells = []
        for column in columns:
            value = row.get(column, "")
            if isinstance(value, float):
                cells.append(f"{value:,.2f}")
            else:
                cells.append(str(value))
        print("| " + " | ".join(cells) + " |")
    print()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", action="store_true",
                        help="emit JSON documents instead of markdown")
    as_json = parser.parse_args().json

    if not as_json:
        print("<!-- generated by scripts/generate_experiments_report.py -->\n")

    for exp in EXPERIMENTS:
        rows, work = exp.run_counted(quick=False)
        if as_json:
            print(rows_to_json(exp.title, rows, work))
            print()
        else:
            emit_markdown(exp.title, list(rows[0]), rows)
        sys.stdout.flush()


if __name__ == "__main__":
    main()
