"""The parser's and the document readers' tests again, with session documents decoded by json alone.

Where orjson is installed, ``parse_session`` decodes with it first; here
``import orjson`` fails, so every test below takes the path a machine
without orjson takes. Each test is collected again here, its name
prefixed with the module it comes from, since both modules have a
``TestClosedErrorSurface``.
"""

import pytest

from gpindex.jsondoc import fast_json
from tests import test_jsondoc, test_telemetry

pytestmark = pytest.mark.usefixtures("json_only")

for _module in (test_jsondoc, test_telemetry):
    _prefix = _module.__name__.rsplit("_", 1)[1]
    for _name, _test in vars(_module).items():
        if _name.startswith("test_"):
            globals()[f"test_{_prefix}_{_name[5:]}"] = _test
        elif _name.startswith("Test"):
            globals()[f"Test{_prefix.capitalize()}{_name[4:]}"] = _test


def test_sessions_are_decoded_by_json():
    assert fast_json() is None
