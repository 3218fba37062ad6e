# Runs a pinned golden spec as N separate `search_lab run --shard=i/N`
# processes sharing one cache journal, merges the binary shard artifacts
# with `search_lab merge`, and byte-compares the merged CSV against
# GOLDEN — the binary-level enforcement of the shard pipeline's headline
# invariant (the library-level twin lives in tests/scenario_shard_test.cpp).
#
# With -DRESUME=ON it additionally emulates a killed-and-resumed shard:
# after all shards complete, shard 1's artifact is deleted and the shared
# cache journal is cut (`truncate -s`) halfway through shard 1's records —
# the state a process killed mid-append leaves behind. Shard 1 then
# reruns, serving its surviving cells from the journal, skipping the torn
# record, and recomputing (and appending) the rest; its metrics must show
# both. The merge of the resumed artifact must still match GOLDEN
# byte-for-byte.
#
# With -DPRESEED_SHARDS=<m> the journal is first seeded by shard 1/m of an
# m-way split of the same spec (its artifact discarded), so the N-way
# shards find a journal another partition wrote: across the shard set some
# cells must be served from it and some computed. With -DREVERSE_MERGE=ON
# the artifacts are handed to `search_lab merge` last shard first.
#
# With -DWARM=ON every shard reruns, after the rest, against the complete
# journal: each must serve all its cells from it (cells_computed 0), the
# journal must not grow, and the warm artifacts are what the catalog and
# the merge below read.
#
# With -DCATALOG=ON the artifact set is additionally smoke-tested through
# `search_lab catalog`: the listing must name every artifact, and the
# cell-mode CSV render must produce exactly the plan's row count without a
# merge.
#
#   cmake -DSEARCH_LAB=<bin> -DSPEC=<spec> -DGOLDEN=<csv> -DOUT_DIR=<dir>
#         -DN_SHARDS=<n> [-DPRESEED_SHARDS=<m>] [-DREVERSE_MERGE=ON]
#         [-DRESUME=ON] [-DWARM=ON] [-DCATALOG=ON]
#         -P run_sharded_golden.cmake
foreach(var SEARCH_LAB SPEC GOLDEN OUT_DIR N_SHARDS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_sharded_golden.cmake: missing -D${var}=")
  endif()
endforeach()

file(REMOVE_RECURSE ${OUT_DIR})
file(MAKE_DIRECTORY ${OUT_DIR})
set(cache_dir ${OUT_DIR}/cache)

# Each shard also writes its telemetry (metrics + event log) next to its
# artifact: the shard artifact embeds the metrics record, so the final
# merge re-aggregates them, and CI uploads the per-shard files for
# monitoring-pipeline debugging. Strictly observational — the byte-compare
# below proves the merged CSV is unaffected.
function(run_one_shard shard)
  execute_process(
    COMMAND ${SEARCH_LAB} run --spec=${SPEC}
            --shard=${shard}/${N_SHARDS}
            --shard-out=${OUT_DIR}/shard_${shard}.shard
            --cache-dir=${cache_dir} --quiet
            --metrics-out=${OUT_DIR}/shard_${shard}.metrics.json
            --events=${OUT_DIR}/shard_${shard}.events.jsonl
    RESULT_VARIABLE run_result)
  if(NOT run_result EQUAL 0)
    message(FATAL_ERROR
            "search_lab shard ${shard}/${N_SHARDS} failed (${run_result}) "
            "on ${SPEC}")
  endif()
endfunction()

# Reads the cells_total / cells_computed / cache_hits counters of the
# metrics file `run_one_shard` last wrote for `shard`.
function(read_shard_metrics shard prefix)
  file(READ ${OUT_DIR}/shard_${shard}.metrics.json metrics)
  foreach(counter cells_total cells_computed cache_hits)
    string(REGEX MATCH "\"${counter}\":([0-9]+)" _ "${metrics}")
    if(CMAKE_MATCH_1 STREQUAL "")
      message(FATAL_ERROR "shard ${shard} metrics lack ${counter}:\n"
              "${metrics}")
    endif()
    set(${prefix}_${counter} ${CMAKE_MATCH_1} PARENT_SCOPE)
  endforeach()
endfunction()

if(PRESEED_SHARDS)
  execute_process(
    COMMAND ${SEARCH_LAB} run --spec=${SPEC}
            --shard=1/${PRESEED_SHARDS}
            --shard-out=${OUT_DIR}/preseed.shard
            --cache-dir=${cache_dir} --quiet
    RESULT_VARIABLE preseed_result)
  if(NOT preseed_result EQUAL 0)
    message(FATAL_ERROR
            "search_lab preseed shard 1/${PRESEED_SHARDS} failed "
            "(${preseed_result}) on ${SPEC}")
  endif()
  file(REMOVE ${OUT_DIR}/preseed.shard)
endif()

# Shard 1 runs last, so its records sit at the journal's tail — where a
# kill would cut them.
set(artifacts "")
foreach(shard RANGE 1 ${N_SHARDS})
  list(APPEND artifacts ${OUT_DIR}/shard_${shard}.shard)
  if(shard GREATER 1)
    run_one_shard(${shard})
  endif()
endforeach()
set(journal ${cache_dir}/cache.pack)
set(before_shard_1 0)
if(EXISTS ${journal})
  file(SIZE ${journal} before_shard_1)
endif()
run_one_shard(1)

if(PRESEED_SHARDS)
  set(served 0)
  set(computed 0)
  foreach(shard RANGE 1 ${N_SHARDS})
    read_shard_metrics(${shard} m)
    math(EXPR served "${served} + ${m_cache_hits}")
    math(EXPR computed "${computed} + ${m_cells_computed}")
  endforeach()
  if(NOT served GREATER 0 OR NOT computed GREATER 0)
    message(FATAL_ERROR
            "the ${N_SHARDS} shards served ${served} cells from the "
            "journal seeded by shard 1/${PRESEED_SHARDS} and computed "
            "${computed}: the seeded journal must leave both some cells "
            "cached and some to compute")
  endif()
endif()

if(RESUME)
  # Emulate a mid-run kill of shard 1: its artifact never landed and the
  # journal ends in a torn record halfway through shard 1's appends. The
  # rerun must serve the surviving cells from the journal, skip the torn
  # bytes, and recompute (and append) the rest.
  file(REMOVE ${OUT_DIR}/shard_1.shard)
  file(SIZE ${journal} after_shard_1)
  math(EXPR cut "(${before_shard_1} + ${after_shard_1}) / 2")
  execute_process(
    COMMAND truncate -s ${cut} ${journal}
    RESULT_VARIABLE truncate_result)
  if(NOT truncate_result EQUAL 0)
    message(FATAL_ERROR "truncate of the cache journal failed "
            "(${truncate_result})")
  endif()
  run_one_shard(1)
  read_shard_metrics(1 resumed)
  set(resumed_hits ${resumed_cache_hits})
  set(resumed_computed ${resumed_cells_computed})
  if(NOT resumed_hits GREATER 0 OR NOT resumed_computed GREATER 0)
    message(FATAL_ERROR
            "resumed shard 1 served ${resumed_hits} cells from the journal "
            "and computed ${resumed_computed}: the cut journal must leave "
            "both some of its cells cached and some to recompute")
  endif()
endif()

if(WARM)
  # A complete journal serves every cell: no shard computes, none appends.
  file(SIZE ${journal} cold_size)
  foreach(shard RANGE 1 ${N_SHARDS})
    run_one_shard(${shard})
    read_shard_metrics(${shard} warm)
    if(NOT warm_cells_computed EQUAL 0
       OR NOT warm_cache_hits EQUAL warm_cells_total)
      message(FATAL_ERROR
              "warm shard ${shard} computed ${warm_cells_computed} and "
              "served ${warm_cache_hits} of its ${warm_cells_total} cells "
              "from the complete journal: all must be served")
    endif()
  endforeach()
  file(SIZE ${journal} warm_size)
  if(NOT warm_size EQUAL cold_size)
    message(FATAL_ERROR
            "the warm reruns grew the journal from ${cold_size} to "
            "${warm_size} bytes: a served cell must not be appended again")
  endif()
endif()

if(REVERSE_MERGE)
  list(REVERSE artifacts)
endif()

if(CATALOG)
  # Listing mode: every artifact must appear.
  execute_process(
    COMMAND ${SEARCH_LAB} catalog ${artifacts}
    OUTPUT_VARIABLE catalog_listing
    RESULT_VARIABLE catalog_result)
  if(NOT catalog_result EQUAL 0)
    message(FATAL_ERROR "search_lab catalog failed (${catalog_result})")
  endif()
  foreach(shard RANGE 1 ${N_SHARDS})
    string(FIND "${catalog_listing}" "shard_${shard}.shard" at)
    if(at EQUAL -1)
      message(FATAL_ERROR
              "catalog listing is missing shard_${shard}.shard:\n"
              "${catalog_listing}")
    endif()
  endforeach()

  # Cell mode: rendering every cell across the artifact set (no merge) must
  # emit exactly the plan's cell count — header line + one row per cell of
  # GOLDEN, whose row count is the plan's by construction.
  execute_process(
    COMMAND ${SEARCH_LAB} catalog ${artifacts}
            --csv=${OUT_DIR}/catalog.csv --quiet
    RESULT_VARIABLE catalog_csv_result)
  if(NOT catalog_csv_result EQUAL 0)
    message(FATAL_ERROR
            "search_lab catalog --csv failed (${catalog_csv_result})")
  endif()
  file(STRINGS ${OUT_DIR}/catalog.csv catalog_lines)
  list(LENGTH catalog_lines catalog_n)
  file(STRINGS ${GOLDEN} golden_lines)
  list(LENGTH golden_lines golden_n)
  if(NOT catalog_n EQUAL golden_n)
    message(FATAL_ERROR
            "catalog cell render has ${catalog_n} lines, golden has "
            "${golden_n} — the catalog dropped or duplicated cells")
  endif()
endif()

execute_process(
  COMMAND ${SEARCH_LAB} merge ${artifacts} --csv=${OUT_DIR}/merged.csv
          --metrics-out=${OUT_DIR}/merged.metrics.json --quiet
  RESULT_VARIABLE merge_result)
if(NOT merge_result EQUAL 0)
  message(FATAL_ERROR "search_lab merge failed (${merge_result})")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT_DIR}/merged.csv ${GOLDEN}
  RESULT_VARIABLE diff_result)
if(NOT diff_result EQUAL 0)
  message(FATAL_ERROR
          "sharded golden mismatch: merge of ${N_SHARDS} shards differs "
          "from ${GOLDEN} — the shard pipeline broke the byte-identity "
          "contract (merged CSV and shard artifacts left in ${OUT_DIR})")
endif()
