# Fails if src/ ships a header that nothing outside the tests reaches.
#
# A header under src/ is reached when a file in src/ other than its own .cpp,
# or any file in tools/, examples/, perfbench/ or bench/, includes it. Code
# that only tests use belongs in tests/support/, not in the library; this
# check lists every unreached header so retiring a consumer cannot leave its
# module behind.
#
#   cmake -DSOURCE_DIR=<repo root> -P run_reach_check.cmake
if(NOT DEFINED SOURCE_DIR)
  message(FATAL_ERROR "run_reach_check.cmake: missing -DSOURCE_DIR=")
endif()

file(GLOB_RECURSE headers RELATIVE ${SOURCE_DIR}/src ${SOURCE_DIR}/src/*.h)
list(SORT headers)

# Every include edge as "<included>@<includer>", paths relative to the root.
set(edges)
foreach(dir src tools examples perfbench bench)
  file(GLOB_RECURSE files ${SOURCE_DIR}/${dir}/*.h ${SOURCE_DIR}/${dir}/*.cpp)
  foreach(file ${files})
    file(RELATIVE_PATH includer ${SOURCE_DIR} ${file})
    file(STRINGS ${file} lines REGEX "^[ \t]*#[ \t]*include[ \t]*\"")
    foreach(line ${lines})
      string(REGEX REPLACE "^[ \t]*#[ \t]*include[ \t]*\"([^\"]+)\".*" "\\1"
             included "${line}")
      list(APPEND edges "${included}@${includer}")
    endforeach()
  endforeach()
endforeach()

set(unreached)
foreach(header ${headers})
  string(REGEX REPLACE "\\.h$" ".cpp" own_cpp "src/${header}")
  string(REPLACE "." "\\." pattern "^${header}@")
  set(includers ${edges})
  list(FILTER includers INCLUDE REGEX "${pattern}")
  list(REMOVE_ITEM includers "${header}@${own_cpp}")
  if(NOT includers)
    list(APPEND unreached "src/${header}")
  endif()
endforeach()

if(unreached)
  list(JOIN unreached "\n  " listing)
  message(FATAL_ERROR
          "headers in src/ that only tests reach (move them to tests/support/ "
          "or delete them):\n  ${listing}")
endif()
list(LENGTH headers n_headers)
message(STATUS "all ${n_headers} headers in src/ are reached outside tests/")
