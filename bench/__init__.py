"""The repo's one performance benchmark (see ``bench/README.md``).

``python -m bench run`` measures every workload declared in
``BENCHMARK.json``; ``python -m bench measure`` is the single-workload
child (and the command the declaration names); ``python -m bench
compare`` judges two saved runs against the declared bounds.
"""
