"""The inline Python programs of the CI workflow, run as tests.

Several workflow steps are Python programs fed to ``python -`` by a
heredoc.  They patch private names of the package, so a refactor that
renames one breaks them; running them here catches that with the rest
of the suite.  Each program runs in a fresh interpreter, with the flags
and the ``timeout`` of its step, in a scratch directory that links
``src`` and ``tests``, since the programs read and write relative paths.
"""

import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
# ``[VAR=value ...] [timeout N] python [-I -S] - <<'PY'``
HEREDOC = re.compile(r"(?:\S+=\S+ )*(?:timeout (\d+) )?python((?: -[A-Z])*) - <<'PY'")
STEP = re.compile(r"- name: (.+)")


def inline_programs() -> list:
    """One ``pytest.param(timeout, flags, source)`` per program, with its
    step's name as the id."""
    lines = WORKFLOW.read_text(encoding="utf-8").splitlines()
    programs, step = [], None
    for i, line in enumerate(lines):
        named = STEP.fullmatch(line.strip())
        if named:
            step = named[1]
        heredoc = HEREDOC.fullmatch(line.strip())
        if heredoc:
            end = next(j for j in range(i + 1, len(lines)) if lines[j].strip() == "PY")
            source = textwrap.dedent("\n".join(lines[i + 1 : end])) + "\n"
            timeout = int(heredoc[1] or 60)
            programs.append(pytest.param(timeout, heredoc[2].split(), source, id=step))
    return programs


PROGRAMS = inline_programs()


def test_every_inline_program_is_found():
    assert len(PROGRAMS) == 15


@pytest.mark.parametrize("timeout, flags, source", PROGRAMS)
def test_inline_program_passes(tmp_path, timeout, flags, source):
    for name in ("src", "tests"):
        (tmp_path / name).symlink_to(ROOT / name, target_is_directory=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    result = subprocess.run(
        [sys.executable, *flags, "-"],
        input=source,
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stdout + result.stderr
