"""Regenerate the measured tables embedded in EXPERIMENTS.md.

Runs every deterministic row of the experiment table
(:mod:`repro.bench.registry`) at its ``full`` scale and prints a markdown
report to stdout:

    python scripts/generate_experiments_report.py > /tmp/report.md

With ``--json`` each experiment is emitted as a JSON document instead
(the same serialisation as ``python -m repro experiment <name> --json``),
for scripted consumers that would otherwise scrape the tables.
"""

import argparse
import sys

from repro.bench import rows_to_json
from repro.bench.registry import DETERMINISTIC

#: Set by main() from --json; switches emit() to JSON documents.
JSON_MODE = False


def emit(title, columns, rows):
    if JSON_MODE:
        print(rows_to_json(title, rows))
        print()
    else:
        emit_markdown(title, columns, rows)


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
    global JSON_MODE
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", action="store_true",
                        help="emit JSON documents instead of markdown")
    JSON_MODE = parser.parse_args().json

    if not JSON_MODE:
        print("<!-- generated by scripts/generate_experiments_report.py -->\n")

    for exp in DETERMINISTIC:
        rows = exp.run(quick=False)
        emit(exp.title, list(rows[0]), rows)
        sys.stdout.flush()


if __name__ == "__main__":
    main()
