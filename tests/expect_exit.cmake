# Run one command and check how it ends:
#
#   cmake -DEXE=PROGRAM -DARGS="a|b|c" -DWANT=N [-DMATCH=REGEX]
#         [-DERRMATCH=REGEX] -P expect_exit.cmake
#
# ARGS separates the program's arguments with '|'.  Fails unless the exit
# status is WANT, stdout matches MATCH when given, and stderr matches
# ERRMATCH when given.
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL WANT)
  message(FATAL_ERROR "exit status ${rc}, want ${WANT}\n${out}${err}")
endif()
if(DEFINED MATCH AND NOT out MATCHES "${MATCH}")
  message(FATAL_ERROR "output does not match '${MATCH}':\n${out}${err}")
endif()
if(DEFINED ERRMATCH AND NOT err MATCHES "${ERRMATCH}")
  message(FATAL_ERROR "stderr does not match '${ERRMATCH}':\n${err}")
endif()
message("${out}")
