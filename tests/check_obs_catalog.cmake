# Checks that the instrument table of docs/OBSERVABILITY.md and the
# metrics catalog (kCatalog in src/obs/metrics.cc) name the same
# instruments: every catalog entry has a table row and every row
# names a catalog entry.  Invoked by the obs_catalog_documented
# ctest entry with -DCATALOG=<metrics.cc> -DDOC=<OBSERVABILITY.md>.

cmake_minimum_required(VERSION 3.21)

file(READ ${CATALOG} src)
string(FIND "${src}" "kCatalog[] = {" at)
if(at EQUAL -1)
    message(FATAL_ERROR "no kCatalog table in ${CATALOG}")
endif()
string(SUBSTRING "${src}" ${at} -1 src)
string(FIND "${src}" "};" end)
string(SUBSTRING "${src}" 0 ${end} src)
string(REGEX MATCHALL "{\"[^\"]+\", '[cgh]'}" entries "${src}")
set(catalog "")
foreach(e IN LISTS entries)
    string(REGEX REPLACE "{\"([^\"]+)\", '([cgh])'}" "\\1 \\2" e "${e}")
    list(APPEND catalog "${e}")
endforeach()
list(LENGTH catalog n)
if(n EQUAL 0)
    message(FATAL_ERROR "parsed no entries from kCatalog")
endif()

# Table rows look like: | `name` | c | unit | owner | meaning |
file(STRINGS ${DOC} lines REGEX "^\\| `[a-z_.]+` \\| [cgh] \\|")
set(documented "")
foreach(l IN LISTS lines)
    string(REGEX REPLACE "^\\| `([a-z_.]+)` \\| ([cgh]) \\|.*" "\\1 \\2"
           l "${l}")
    list(APPEND documented "${l}")
endforeach()

set(missing "")
foreach(e IN LISTS catalog)
    if(NOT e IN_LIST documented)
        list(APPEND missing "${e}")
    endif()
endforeach()
set(stale "")
foreach(e IN LISTS documented)
    if(NOT e IN_LIST catalog)
        list(APPEND stale "${e}")
    endif()
endforeach()

if(missing OR stale)
    list(JOIN missing "\n  " missing)
    list(JOIN stale "\n  " stale)
    message(FATAL_ERROR
        "docs/OBSERVABILITY.md's instrument table and kCatalog "
        "disagree (entries are 'name kind').\n"
        "In kCatalog but not in the table:\n  ${missing}\n"
        "In the table but not in kCatalog:\n  ${stale}\n")
endif()
message(STATUS "${n} catalog instruments documented")
