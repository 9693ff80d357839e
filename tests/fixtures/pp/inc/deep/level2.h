#ifndef LEVEL2_H
#define LEVEL2_H
#include "level3.h"
#define LEVEL2_VALUE (LEVEL3_VALUE - 1)
int level2_decl;
#endif
