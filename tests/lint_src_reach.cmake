# Fails when a public header under src/*/include is reached only by tests:
# every src/<module>/include/moas/**/*.h must be #included by some file
# under src/, bench/, examples/ or perfbench/ other than its own
# same-named src/<module>/<name>.cpp.
#
#   cmake -DREPO_ROOT=<checkout> -P tests/lint_src_reach.cmake
#
# REPO_ROOT defaults to the parent of this script's directory.
cmake_minimum_required(VERSION 3.16)

if(NOT DEFINED REPO_ROOT)
  get_filename_component(REPO_ROOT "${CMAKE_CURRENT_LIST_DIR}/.." ABSOLUTE)
endif()

set(include_re "^[ \t]*#[ \t]*include[ \t]*[\"<](moas/[^\">]+)[\">]")

# Who includes what: users_<header id> lists the files including it.
file(GLOB_RECURSE scanned RELATIVE "${REPO_ROOT}"
  "${REPO_ROOT}/src/*.h" "${REPO_ROOT}/src/*.cpp"
  "${REPO_ROOT}/bench/*.h" "${REPO_ROOT}/bench/*.cpp"
  "${REPO_ROOT}/examples/*.h" "${REPO_ROOT}/examples/*.cpp"
  "${REPO_ROOT}/perfbench/*.h" "${REPO_ROOT}/perfbench/*.cpp")
foreach(file IN LISTS scanned)
  file(STRINGS "${REPO_ROOT}/${file}" lines REGEX "${include_re}")
  foreach(line IN LISTS lines)
    string(REGEX REPLACE "${include_re}.*" "\\1" included "${line}")
    string(MAKE_C_IDENTIFIER "${included}" id)
    list(APPEND users_${id} "${file}")
  endforeach()
endforeach()

file(GLOB_RECURSE candidates RELATIVE "${REPO_ROOT}" "${REPO_ROOT}/src/*.h")
list(SORT candidates)
set(headers 0)
set(unreached "")
foreach(header IN LISTS candidates)
  if(NOT header MATCHES "^src/([^/]+)/include/(moas/.+)$")
    continue()
  endif()
  set(module "${CMAKE_MATCH_1}")
  set(included "${CMAKE_MATCH_2}")
  math(EXPR headers "${headers} + 1")
  get_filename_component(stem "${header}" NAME_WE)
  string(MAKE_C_IDENTIFIER "${included}" id)
  set(users ${users_${id}})
  list(REMOVE_ITEM users "src/${module}/${stem}.cpp")
  if(NOT users)
    list(APPEND unreached "${header}")
  endif()
endforeach()

if(headers EQUAL 0)
  message(FATAL_ERROR "no headers found under ${REPO_ROOT}/src/*/include")
endif()
if(unreached)
  list(LENGTH unreached count)
  list(JOIN unreached "\n  " listing)
  message(FATAL_ERROR
    "${count} header(s) under src/*/include are included by no file in src/, "
    "bench/, examples/ or perfbench/ apart from their own .cpp:\n  ${listing}")
endif()
message(STATUS "all ${headers} headers under src/*/include are reached outside tests")
