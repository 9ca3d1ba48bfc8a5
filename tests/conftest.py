"""Loaded before any test module: iotids is imported first, so its default
of one BLAS thread (iotids/__init__.py) is set before numpy is imported and
starts its thread pool.  A test that forks then forks a one-threaded
process, as the CLI does."""

import iotids  # noqa: F401
