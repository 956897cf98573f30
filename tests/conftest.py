import warnings

# When a hypothesis example fails, hypothesis' pytest plugin imports
# hypothesis.extra._patching to write its patch file. That module imports
# libcst, whose import raises a DeprecationWarning (mypy_extensions.TypedDict);
# under -W error or filterwarnings("error") the session then ends in an
# INTERNALERROR instead of the falsifying example. Importing it once here,
# with only that warning category ignored and only for the import, keeps the
# report; without libcst the plugin writes no patch, and nothing is imported.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
