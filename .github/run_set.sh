#!/usr/bin/env bash
# The reproducibility run set: writes four input CSVs into IN, then runs
# every command with `python -m semiwalk.cli`, each into its own directory
# under OUT. Each run's stdout goes to OUT/<run>.stdout and its exit code to
# OUT/<run>.code, beside its artifacts, so two runs of this script (in fresh
# processes, or at two commits) compare with one `diff -r`. Exits 1 if any
# run exited nonzero.
#
# usage: .github/run_set.sh IN OUT
set -eu
in=$1
out=$2
mkdir -p "$in" "$out"

# a seeded random N = 32 input; a weighted 6-cycle, whose odd members are
# periodic (LU solve, then the SVD on G^2); two closed 3-node blocks (SVD
# only); and the paper's two-node chain
python -c 'import numpy as np, semiwalk as sw; from semiwalk.corpus import random_stochastic; print(sw.serialize(random_stochastic(32, np.random.default_rng(32)), "csv"), end="")' > "$in/random_32.csv"
python -c 'import numpy as np, semiwalk as sw; w = np.array([0.3, 0.6, 0.5, 0.2, 0.7, 0.4]); g = np.roll(np.diag(w), 1, axis=0) + np.roll(np.diag(1 - w), -1, axis=0); print(sw.serialize(sw.TransitionMatrix(g), "csv"), end="")' > "$in/cycle_6.csv"
python -c 'import numpy as np, semiwalk as sw; from semiwalk.corpus import random_stochastic; rng = np.random.default_rng(6); a, b, z = random_stochastic(3, rng).g, random_stochastic(3, rng).g, np.zeros((3, 3)); print(sw.serialize(sw.TransitionMatrix(np.block([[a, z], [z, b]])), "csv"), end="")' > "$in/blocks_6.csv"
python -c 'import semiwalk as sw; print(sw.serialize(sw.two_node_chain(), "csv"), end="")' > "$in/two_node.csv"

failed=0
run() {  # run NAME ARGS...: semiwalk ARGS --out OUT/NAME
    local name=$1 code=0
    shift
    python -m semiwalk.cli "$@" --out "$out/$name" > "$out/$name.stdout" || code=$?
    echo "$code" > "$out/$name.code"
    if [ "$code" -ne 0 ]; then
        echo "run $name exited $code" >&2
        failed=1
    fi
}

for p in fig3 fig4 fig5 fig6 fig7 fig9 fig10; do
    run "$p" preset "$p"
done
# the circuit command whose circuit.qasm, gates.json and verify.json are fig9's
run circuit_fig9 circuit --tq 1 --tc 2 --p0 0.8,0.2
# class 1 and 2; evolve and sample at t_q = 300 form one member without its family
run family family --input "$in/random_32.csv" --tq-max 20
run family_2 family --input "$in/random_32.csv" --class 2 --tq-max 20
run evolve evolve --input "$in/random_32.csv" --tq 3 --steps 40
run evolve_300 evolve --input "$in/random_32.csv" --tq 300 --steps 40
run sample_300 sample --input "$in/random_32.csv" --tq 300 --steps 20 --count 5 --seed 3
run rank rank --input "$in/random_32.csv" --tq-max 20
run rank_2 rank --input "$in/random_32.csv" --class 2 --tq-max 20
run rank_cycle rank --input "$in/cycle_6.csv" --tq-max 12
run rank_blocks rank --input "$in/blocks_6.csv" --tq-max 12
# the odd 7-cycle's unitary period is 2n; the 128-cycle's components come
# from reachability closures at the target size
run cycle cycle --n 6
run cycle_7 cycle --n 7
run cycle_128 cycle --n 128
# classical control, MAX_WALK_BLOCKS, and t_q = 1000 and the two-node chain's
# long families on D's lam = 1 line, where members come in closed form; the
# 100000-member family.json is streamed one row view at a time
run circuit circuit --tq 3 --tc 20
run circuit_cc circuit --tq 2 --tc 20 --classical-control
run circuit_cap circuit --tq 1 --tc 32768
run circuit_1000 circuit --tq 1000
run family_2000 family --input "$in/two_node.csv" --tq-max 2000
run family_100000 family --input "$in/two_node.csv" --tq-max 100000
run verify verify --count 100 --seed 0
exit "$failed"
