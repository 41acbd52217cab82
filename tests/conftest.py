import threading
import warnings

import pytest

# Hypothesis imports its patch writer only once a property test has failed.
# With libcst installed, that import meets a DeprecationWarning from
# mypy_extensions, which the suite's warnings-as-errors filter turns into an
# INTERNALERROR that ends the run.  Importing it here, with that one warning
# ignored, keeps a failing property test an ordinary failure.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated",
                            DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: Hypothesis prints no patch
        pass


@pytest.fixture(autouse=True)
def no_thread_outlives_the_test():
    """Fail a test that leaves a thread it started running."""
    before = set(threading.enumerate())
    yield
    left = [t for t in threading.enumerate() if t not in before]
    assert left == [], f"threads still running after the test: {left}"
