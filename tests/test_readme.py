"""The README's library sketch runs against the current API, and its key
table names every config key."""

import contextlib
import io
import re
from pathlib import Path

from sarcs.config import _KEYS

ROOT = Path(__file__).resolve().parent.parent


def library_sketch() -> str:
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library sketch", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README has no python block under '## Library sketch'"
    return match.group(1)


def test_library_sketch_runs(monkeypatch):
    monkeypatch.chdir(ROOT)  # the sketch loads configs/ by relative path
    namespace = {"__name__": "readme_sketch"}
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(library_sketch(), "README.md", "exec"), namespace)
    profile = namespace["profile"]
    assert profile.flat.size == 1
    assert str(profile.entries[0][0]) in printed.getvalue()


def test_configuration_keys_section_lists_every_key():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Configuration keys", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"`([a-z0-9_]+)(?:`| = )", section))
    assert {row.key for row in _KEYS} - named == set()
    assert "cache_policy" not in section  # the memory rule picks the row cache
    # the constant c and the mode snr_values_db picks are not keys
    for derived in ("propagation_speed", "`mode`"):
        assert derived not in section
    for gone in ("wavelength", "chirp_rate", "echo_magnitude_csv"):
        assert gone not in readme
