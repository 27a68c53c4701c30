"""End-to-end and per-layer benchmark of tqftkit; see README.md."""
