/* Reached through a macro-expanded #include. */
#include "level1.h"
#define EXTRA_VALUE 40
int extra_decl;
