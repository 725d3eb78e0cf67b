#!/usr/bin/env bash
# Recurrence blocks, Favard and Jacobi moments through the `ncpoly` command.
# Writes its files to the current directory; exits nonzero on the first failed check.
set -euo pipefail

python -c "import numpy as np; from ncpoly import serialize; from ncpoly.functional import from_representation; X = np.random.default_rng(0).standard_normal((2, 20, 20)); serialize.save_moments(from_representation((X + X.transpose(0, 2, 1)) / 4, np.ones(20) / np.sqrt(20), 6), 'm.json')"
ncpoly recurrence --moments m.json --levels 3 --out c.json > r.json
ncpoly favard --coeffs c.json > f.json
python -c "import json; assert all(json.load(open(p))['status'] == 'ok' for p in ('r.json', 'f.json'))"
ncpoly jacobi --coeffs c.json --truncate 1 --word 1.2.1 > j.json
ncpoly jacobi --coeffs c.json --truncate 1 --word 1.2.1.2.2.1.1 > jl.json
rc=0; ncpoly jacobi --coeffs c.json --truncate 1 --word 1.3 || rc=$?; test "$rc" -eq 2
python -c "import json; j, jl, m = (json.load(open(p)) for p in ('j.json', 'jl.json', 'm.json')); assert j['status'] == jl['status'] == 'ok'; assert abs(complex(*j['metrics']['moment']) - complex(*m['moments']['1.2.1'])) <= 1e-10"
