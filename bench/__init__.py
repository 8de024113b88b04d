"""End-to-end benchmark: select -> train -> spill -> process -> serve.

Run ``python3 -m bench`` from the repository root; see ``bench/README.md``.
Everything here measures the program from outside, through public calls:
nothing under ``src/`` knows this package exists.
"""
