"""Layered host-time benchmark (see README.md); the command is ``run.py``."""
