/* Preprocessor fixture: every macro feature the front end supports, in one
   unit. Pinned by tests/token_stream.rs; edit only together with its pins. */
#include "inc/level1.h"

#define EXTRA_HEADER "inc/extra.h"
#include EXTRA_HEADER

#define LIMIT 16
#define SQUARE(x) ((x) * (x))
#define MAX(a, b) ((a) > (b) ? (a) : (b))
#define STR(x) #x
#define XSTR(x) STR(x)
#define GLUE(a, b) a ## b
#define GLUE3(a, b, c) a ## b ## c
#define CALL(f, ...) f(__VA_ARGS__)
#define LOG(fmt, ...) record(fmt, __VA_ARGS__)
#define EMPTY
#define NOTHING()
#define self self
#define ping pong
#define pong ping
#define APPLY(m, v) m(v)
#define PTR_TO(t) t *
#define FIELD(s, f) ((s)->f)
#define counter_name GLUE(count, er)

int plain_before_any_use;
int table[LIMIT];
int self;
int ping;
int counter_name;
PTR_TO(int) cursor = &table[0];

#if LIMIT > 32
int limit_is_large;
#elif LIMIT > 8 && defined(SQUARE)
int limit_is_medium;
#elif LIMIT
int limit_is_small;
#else
int limit_is_zero;
#endif

#if LEVEL3_VALUE == 3 && !defined(NEVER_DEFINED)
int chain_reached_level3;
#endif

#ifdef EMPTY
int empty_is_defined EMPTY;
#endif

int record(const char *fmt, ...);
int twice(int v) { return SQUARE(v) + SQUARE(LIMIT); }
int larger(int a, int b) { return MAX(a, MAX(b, LIMIT)); }
const char *name_of_limit = XSTR(LIMIT);
const char *name_raw = STR(a + b   "quoted" 'c');
int GLUE(var, 1) = 1;
int GLUE3(var, _, 2) = 2;
int log_it(int v) { return LOG("v=%d w=%d", v, CALL(twice, v)) NOTHING(); }
int apply_it(int v) { return APPLY(SQUARE, v) + APPLY(twice, LIMIT); }

struct node { struct node *next; int value; };
int read_value(struct node *n) { return FIELD(n, value) + FIELD(n->next, value); }

int late_name;
#define late_name renamed_late
int late_name;
#undef late_name
int late_name_again;

#undef LIMIT
#define LIMIT 4
int small_table[LIMIT];
int split_\
name = SQUARE(\
LIMIT);
int from_extra = EXTRA_VALUE + LEVEL1_VALUE + LEVEL2_VALUE;
