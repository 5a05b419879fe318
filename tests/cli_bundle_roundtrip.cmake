# The scripts/ci.sh bundle gates in small: `bundle bench` (no speed gate,
# but its bitwise text-vs-binary model fingerprint check), `bundle verify`
# on both bundles it wrote, then `bundle pack` converting the binary bundle
# back to text must reproduce the bench's text bundle byte for byte. Used by
# the dnlr_cli_bundle_roundtrip test in CMakeLists.txt.
function(run_cli)
  execute_process(COMMAND ${CLI} ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "dnlr_cli ${ARGN}: exit ${rc}\n${out}\n${err}")
  endif()
endfunction()

run_cli(bundle bench --trees 20 --leaves 16 --arch 32x16 --features 20
        --iters 1 --dir out)
run_cli(bundle verify --in out/bundle_bench_text.dnlr)
run_cli(bundle verify --in out/bundle_bench_binary.dnlr)
run_cli(bundle pack --in out/bundle_bench_binary.dnlr
        --out out/bundle_roundtrip.dnlr)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        out/bundle_bench_text.dnlr out/bundle_roundtrip.dnlr
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "text -> binary -> text round trip is not "
                      "byte-identical")
endif()
