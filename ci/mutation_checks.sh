#!/usr/bin/env bash
# Mutation checks: every row seeds one deliberate fault into one file, runs
# the test command that must catch it and restores the file. A row passes
# only if
#   1. the seed changed the file,
#   2. the test command failed,
#   3. every expected text (an extended regex) appears in its output,
#   4. the tree is clean again after the restore (`git diff --exit-code`).
#
# Run from the repository root, on a clean tree: ci/mutation_checks.sh
set -euo pipefail

# row NAME FILE SED_DIALECT SEED COMMAND EXPECTED...
# SED_DIALECT is `-E` (extended regex) or `-e` (basic regex).
row() {
    local name=$1 file=$2 dialect=$3 seed=$4 command=$5
    shift 5
    echo "== $name"
    sed -i "$dialect" "$seed" "$file"
    if git diff --quiet -- "$file"; then
        echo "$name: the seed did not change $file"
        exit 1
    fi
    local out
    out=$(mktemp)
    if bash -c "$command" > "$out" 2>&1; then
        echo "$name: \`$command\` accepted the seeded fault"
        cat "$out"
        git checkout -- "$file"
        exit 1
    fi
    git checkout -- "$file"
    local expected
    for expected in "$@"; do
        if ! grep -qE -- "$expected" "$out"; then
            echo "$name: the failure does not match /$expected/"
            cat "$out"
            exit 1
        fi
    done
    rm "$out"
    git diff --exit-code
}

# The counter gate is `cargo test`: the fast run of each experiment must
# render exactly its committed BENCH_*.json. One digit of "bytes" in a
# serving-layer golden, then of the first "cut_edges" in a paper golden,
# must each fail with a diff that prints the line both ways.
row "Golden gate (serving golden)" BENCH_mixed.json -E \
    '/"comm":/ { s/"bytes": 1/"bytes": 2/; t; s/"bytes": [2-9]/"bytes": 1/ }' \
    'cargo test -q -p dsr-bench mixed' \
    '^- *[0-9]+:   "comm": ' \
    '^\+ *[0-9]+:   "comm": '
row "Golden gate (paper golden)" BENCH_table5.json -E \
    '0,/"cut_edges": / { s/"cut_edges": 1/"cut_edges": 2/; t; s/"cut_edges": [2-9]/"cut_edges": 1/ }' \
    'cargo test -q -p dsr-bench table5' \
    '^- *[0-9]+: .*"cut_edges": ' \
    '^\+ *[0-9]+: .*"cut_edges": '

# Each paper experiment checks its shape over counters, and its fast run
# panics naming the artefact when one does not hold: under a hash
# partitioning Table 5 must fail naming Table 5.
row "Paper shape" crates/dsr-bench/src/experiments/common.rs -e \
    's/MultilevelPartitioner::default()\.partition(graph, k)/dsr_partition::HashPartitioner::default().partition(graph, k)/' \
    'cargo test -q -p dsr-bench table5' \
    'Table 5'

# `tests/partition_pinned.rs` pins the multilevel partitioner by digest:
# the gain sweep keeping the last of equal gains instead of the first
# (`gain > bg` becomes `gain >= bg` at its first occurrence, the sweep;
# the second is its test-only reference) must drift a partition.
row "Partition pin" crates/dsr-partition/src/multilevel/refine.rs -e \
    '0,/gain > bg)/ s/gain > bg)/gain >= bg)/' \
    'cargo test -q --test partition_pinned' \
    'partitions drifted'

# In the release profile no transport checks `sorted_ids_size`'s
# vectorised count against the encoder: a gap of exactly 2^14 counted one
# byte cheaper must fail the release-profile `wire::` tests.
row "Byte count" crates/dsr-cluster/src/wire.rs -e \
    's/gap >= 1 << 14)/gap > 1 << 14)/' \
    'cargo test -q --release --lib -p dsr-cluster wire::' \
    'sorted_ids_size_is_the_length_put_sorted_ids_writes'

# The master deduplicates every query's answer in a bucket of its own
# (`engine.rs::assemble_answers`): keeping the duplicates must fail the
# release-profile `engine::` tests naming the batch-wide-sort reference.
row "Answer assembly" crates/dsr-core/src/engine.rs -e \
    's/let distinct = dedup_sorted(bucket);/let distinct = bucket.len();/' \
    'cargo test -q --release --lib -p dsr-core engine::' \
    'per_query_assembly_matches_the_batch_wide_sort_on_every_backend'

# A fused run that answered its queries returns their admission
# (`batcher.rs::execute_group`), and nothing else frees it: dropping the
# success path's release (the first `core.admission.release(released);`)
# must fail the model build of `batcher::` naming the
# two-sequential-submissions test.
row "Admission release" crates/dsr-service/src/batcher.rs -e \
    '0,/core\.admission\.release(released);/ { /core\.admission\.release(released);/d }' \
    'RUSTFLAGS="--cfg dsr_model" cargo test -q -p dsr-service batcher::' \
    'model_completion_returns_admission'

# The same run releases admission only after the cache fill: a client
# admitted by the freed capacity must find the published answers. Moving
# the success path's release before the fill (deleted after it, inserted
# before it: a second release would be an over-release, which
# `Admission::release` reports on its own) must fail the model build of
# `batcher::` naming the publish-before-release test.
row "Publish before release" crates/dsr-service/src/batcher.rs -E \
    '0,/core\.admission\.release\(released\);/ { /core\.admission\.release\(released\);/d }; 0,/for \(\(key, wanted\), value\) in misses/ s/^( *)(for \(\(key, wanted\), value\) in misses)/\1core.admission.release(released);\n\1\2/' \
    'RUSTFLAGS="--cfg dsr_model" cargo test -q -p dsr-service batcher::' \
    'model_release_happens_after_publish' \
    'admission freed before result was published'

# A leader that steps down wakes every blocked client
# (`batcher.rs::lead`): the owner of a miss queued during the run leads
# next. Deleting that post-run notify must fail the model build of
# `batcher::` with a model deadlock, naming the two-client handoff test.
row "Leader handoff" crates/dsr-service/src/batcher.rs -e \
    '/leading = false;/ { n; /notify_all/d }' \
    'RUSTFLAGS="--cfg dsr_model" cargo test -q -p dsr-service batcher::' \
    'model_handoff_never_strands_a_queued_miss' \
    'deadlock'

# `SnapshotRef::drop` releases its pin before it reaps, so the reap sees
# the true strong count. Swapping the two statements must fail the model
# build of the pin-drop-versus-install test: a generation is left
# unreclaimed.
row "Pin drop" crates/dsr-service/src/service.rs -E \
    '/^ *self\.generation = None;$/ { N; s/^( *)(self\.generation = None;)\n( *)(self\.service\.reap_generations\(\);)$/\1\4\n\3\2/ }' \
    'RUSTFLAGS="--cfg dsr_model" cargo test -q -p dsr-service service::tests::model_dropped_pin' \
    'model_dropped_pin_is_reclaimed_racing_an_install' \
    'unreclaimed'

# `QueryCache::insert_if_live` refuses a result whose namespace was retired
# while it was computed: storing it in a fresh map instead must fail the
# model build of `cache::` naming the insert-versus-retire test.
row "Stale insert" crates/dsr-service/src/cache.rs -E \
    's/None => return InsertOutcome::Stale,/None => {\n                namespaces.maps.push((namespace, PrehashedMap::default()));\n                namespaces.maps.len() - 1\n            }/' \
    'RUSTFLAGS="--cfg dsr_model" cargo test -q -p dsr-service cache::' \
    'model_insert_racing_retire_never_leaves_stale_entry' \
    'stale'
