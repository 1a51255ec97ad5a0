"""Locate the checkout the benchmark runs in and import the program from its
`src/`, never from an installed copy."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class CheckoutError(RuntimeError):
    """The checkout holds no program to benchmark."""


def use_src() -> None:
    """Put the checkout's src/ first on sys.path; raise if it is missing."""
    if not (SRC / "csra" / "__init__.py").is_file():
        raise CheckoutError(f"no csra package under {SRC}")
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))


def check_imported(module) -> None:
    """Refuse to measure a csra imported from anywhere but src/."""
    if SRC not in Path(module.__file__).resolve().parents:
        raise CheckoutError(f"csra imported from {module.__file__}, not {SRC}")


def git_commit() -> str:
    """HEAD of the checkout if it is a git work tree, else 'unknown'
    (read from .git directly, so no process is started)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"
