#pragma once
#include "util/json.hpp"
namespace fact::serve { using Json = fact::Json; }
