#ifndef LEVEL1_H
#define LEVEL1_H
#include "deep/level2.h"
#define LEVEL1_VALUE 1
int level1_decl;
#endif
