"""End-to-end and per-layer benchmark of the tenseg pipeline (see README.md)."""
