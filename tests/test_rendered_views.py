"""Golden of the text views that explain where simulated time went.

``tests/golden/rendered_views.txt`` holds, byte for byte, what these
commands print:

* ``profile lenet`` and ``profile alexnet 256`` (the per-layer profile);
* ``experiment roofline`` (the AlexNet and VGG-16 roofline tables);
* ``metrics lenet --ranks 4`` (utilization, wire traffic and roofline);
* ``trace lenet --ranks 4`` (the step summary, the attribution table and
  the critical-path section), without the ``wrote ... to PATH`` line,
  which names a temporary file.

Regenerate with ``PYTHONPATH=src python -m tests.test_rendered_views``.
"""

from __future__ import annotations

import contextlib
import io
import pathlib
import tempfile

from repro.__main__ import main

GOLDEN = pathlib.Path(__file__).parent / "golden" / "rendered_views.txt"

#: The commands whose output the golden holds, in order.
COMMANDS = (
    ("profile", "lenet"),
    ("profile", "alexnet", "256"),
    ("experiment", "roofline"),
    ("metrics", "lenet", "--ranks", "4"),
    ("trace", "lenet", "--ranks", "4"),
)


def _run(argv: tuple[str, ...], out_dir: str) -> str:
    """What ``python -m repro ARGV`` prints, ``wrote`` lines dropped."""
    if argv[0] == "trace":
        argv = (*argv, "--out", str(pathlib.Path(out_dir) / "trace.json"))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(list(argv)) == 0
    return "".join(
        line for line in buf.getvalue().splitlines(keepends=True)
        if not line.startswith("wrote ")
    )


def rendered_views() -> str:
    """Every :data:`COMMANDS` output under a ``$ python -m repro`` header."""
    with tempfile.TemporaryDirectory() as out_dir:
        return "\n".join(
            f"$ python -m repro {' '.join(argv)}\n{_run(argv, out_dir)}"
            for argv in COMMANDS
        )


def test_rendered_views_match_golden():
    assert GOLDEN.is_file(), (
        f"golden file missing: {GOLDEN}; regenerate with "
        "`python -m tests.test_rendered_views`"
    )
    assert rendered_views() == GOLDEN.read_text()


if __name__ == "__main__":  # pragma: no cover - golden regeneration helper
    GOLDEN.write_text(rendered_views())
    print(f"wrote {GOLDEN}")
