"""README.md's Python blocks run as written, in order, in one namespace
(later blocks reuse earlier names), and print what their comments say.

Every executed ``print`` must carry a comment, and the tokens of each
line it prints must appear, in order, among that comment's tokens; a
comment token ending in ``...`` matches any printed token it prefixes.
The blocks run in a temporary directory because one of them writes
``trace.jsonl`` and ``metrics.prom``.
"""

from __future__ import annotations

import ast
import io
import re
import sys
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"

_TOKEN = re.compile(r"[^\s\[\](),:'\"—]+")


def _blocks():
    return re.findall(r"```python\n(.*?)```", README.read_text(), re.S)


def _matches(printed, comment) -> bool:
    """Is ``printed`` a subsequence of ``comment`` (token-wise)?"""
    remaining = iter(comment)
    for token in printed:
        if not any(
            token == word
            or (word.endswith("...") and token.startswith(word[:-3]))
            for word in remaining
        ):
            return False
    return True


def test_readme_blocks_run_and_print_what_they_claim(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    namespace = {}
    mismatches = []
    blocks = _blocks()
    assert len(blocks) == 9
    for number, source in enumerate(blocks):
        name = "README block %d" % number
        lines = source.splitlines()
        prints = [
            node for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == "print"
        ]

        def checked_print(*args, _lines=lines, _prints=prints, _name=name):
            out = io.StringIO()
            print(*args, file=out)
            lineno = sys._getframe(1).f_lineno
            call = next(
                node for node in _prints
                if node.lineno <= lineno <= node.end_lineno
            )
            comment = []
            for line in _lines[call.lineno - 1:call.end_lineno]:
                if "#" in line:
                    comment += _TOKEN.findall(line.split("#", 1)[1])
            for printed in out.getvalue().splitlines():
                if not _matches(_TOKEN.findall(printed), comment):
                    mismatches.append(
                        "%s line %d printed %r" % (_name, call.lineno, printed)
                    )

        namespace["print"] = checked_print
        exec(compile(source, name, "exec"), namespace)
    assert mismatches == []
