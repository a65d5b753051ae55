#!/usr/bin/env python3
"""Run the three shipped experiment presets and print the channel comparison.

Usage:  python scripts/reproduce_all.py [out_root]

Writes runs/<preset>/ (or <out_root>/<preset>/) with the spike files,
reconstruction traces, periodograms and reports, then tabulates the
single-channel vs two-channel comparison: the two-channel encoder runs at
roughly a third of the single-channel spike rate while both reconstruct
the test waveform well above the acceptance floor.
"""

import sys
from pathlib import Path

from temcodec.cli import main as cli_main

PRESETS = ("single_channel", "two_channel", "pns")


def main() -> int:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("runs")
    config_dir = Path(__file__).resolve().parent.parent / "configs"
    for preset in PRESETS:
        out = root / preset
        rc = cli_main(["run", str(config_dir / f"{preset}.cfg"), "--out-dir", str(out)])
        if rc != 0:
            print(f"preset {preset} failed with exit code {rc}", file=sys.stderr)
            return rc

    print("\nsingle-channel vs two-channel:")
    return cli_main(["compare", *(str(root / p / "report.json")
                                  for p in ("single_channel", "two_channel"))])


if __name__ == "__main__":
    sys.exit(main())
