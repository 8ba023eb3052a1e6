#pragma once
// Umbrella header for the snapshot subsystem: LDSNAP binary artifact
// serialization (format.hpp, artifacts.hpp), input fingerprints
// (fingerprint.hpp) and the content-addressed stage cache (cache.hpp).

#include "leodivide/snapshot/artifacts.hpp"
#include "leodivide/snapshot/cache.hpp"
#include "leodivide/snapshot/fingerprint.hpp"
#include "leodivide/snapshot/format.hpp"
