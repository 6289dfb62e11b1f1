"""Where CLI reports land, and the one field allowed to differ between runs."""

from __future__ import annotations


def report_files(argv: list[str]) -> list[str]:
    """Report files a CLI invocation writes, relative to its working dir."""
    files = []
    for flag, value in zip(argv, argv[1:]):
        if flag == "--json-out":
            files.append(value)
        elif flag == "--out":
            files += [value + ".json", value + ".csv"] if argv[0] == "estimate" else [value]
    return files


def strip_timestamp(text: str) -> str:
    """A report without its timestamp line, excluded from reproducibility."""
    return "".join(ln for ln in text.splitlines(True) if '"timestamp":' not in ln)
