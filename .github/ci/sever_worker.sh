#!/bin/sh
exec ./build/src/server/cost_server "$@" --sever-after-calls 10
