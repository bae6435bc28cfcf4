"""The package's declared metadata against the interpreter and the code.

Only Python 3.11 has been run.  On 3.10.0 to 3.10.6 ``arrangements._rational``
calls ``sys.get_int_max_str_digits``, which those versions lack, so any
non-integer coefficient ended in a traceback; and on every 3.10 ``Fraction``
refuses the underscores that ``int`` accepts.  The floor says so.
"""

import pathlib
import sys
import tomllib

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_the_interpreter_meets_the_declared_floor():
    with PYPROJECT.open("rb") as fh:
        project = tomllib.load(fh)["project"]
    spec = project["requires-python"]
    assert spec == ">=3.11"
    floor = tuple(map(int, spec.removeprefix(">=").split(".")))
    assert sys.version_info[:len(floor)] >= floor
    assert project["dependencies"] == []
    assert hasattr(sys, "get_int_max_str_digits")  # what arrangements._rational calls
