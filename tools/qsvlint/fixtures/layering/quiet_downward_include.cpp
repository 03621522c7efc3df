// qsvlint-fixture: src/catalog/good_layering.hpp
// Must-stay-quiet: catalog (rank 3) including primitives and platform
// (lower ranks), plus the api-common vocabulary header.
#include "core/qsv_mutex.hpp"
#include "locks/clh.hpp"
#include "platform/arch.hpp"
#include "qsv/wait.hpp"

namespace qsv::catalog {}
