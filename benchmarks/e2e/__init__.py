"""The repo's end-to-end benchmark (see README.md in this directory).

``python3 benchmarks/e2e/run.py`` is the only entry point; the modules
here drive ``repro`` purely through its public APIs.
"""
