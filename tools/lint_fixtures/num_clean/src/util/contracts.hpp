// Fixture stub: the contract macro the guarded idioms use.
#pragma once

#define RAYSCHED_EXPECT(cond, msg) static_cast<void>(0)
