#include <math.h>
#define max(a, b) ((a) > (b) ? (a) : (b))
#define min(a, b) ((a) < (b) ? (a) : (b))

void trmm(float a0, float arg1[32][32], float arg2[32][32]) {
  #pragma HLS array_partition variable=arg1 cyclic factor=31 dim=1
  #pragma HLS array_partition variable=arg2 cyclic factor=32 dim=1
  #pragma HLS array_partition variable=arg2 cyclic factor=2 dim=2
  for (int v6 = 0; v6 < 32; v6 += 1) {
    #pragma HLS loop_flatten
    for (int v26 = 0; v26 < 32; v26 += 2) {
      #pragma HLS pipeline II=2
      if ((v6 * -1) >= 0) {
        float v34 = arg2[v6][v26];
        float v35 = arg1[1][v6];
        float v36 = arg2[1][v26];
        float v37 = v35 * v36;
        float v38 = v34 + v37;
        arg2[v6][v26] = v38;
      }
      if ((v6 * -1) >= 0) {
        float v41 = arg2[v6][(v26 + 1)];
        float v42 = arg1[1][v6];
        float v43 = arg2[1][(v26 + 1)];
        float v44 = v42 * v43;
        float v45 = v41 + v44;
        arg2[v6][(v26 + 1)] = v45;
      }
      if (((v6 * -1) + 1) >= 0) {
        float v48 = arg2[v6][v26];
        float v49 = arg1[2][v6];
        float v50 = arg2[2][v26];
        float v51 = v49 * v50;
        float v52 = v48 + v51;
        arg2[v6][v26] = v52;
      }
      if (((v6 * -1) + 1) >= 0) {
        float v55 = arg2[v6][(v26 + 1)];
        float v56 = arg1[2][v6];
        float v57 = arg2[2][(v26 + 1)];
        float v58 = v56 * v57;
        float v59 = v55 + v58;
        arg2[v6][(v26 + 1)] = v59;
      }
      if (((v6 * -1) + 2) >= 0) {
        float v62 = arg2[v6][v26];
        float v63 = arg1[3][v6];
        float v64 = arg2[3][v26];
        float v65 = v63 * v64;
        float v66 = v62 + v65;
        arg2[v6][v26] = v66;
      }
      if (((v6 * -1) + 2) >= 0) {
        float v69 = arg2[v6][(v26 + 1)];
        float v70 = arg1[3][v6];
        float v71 = arg2[3][(v26 + 1)];
        float v72 = v70 * v71;
        float v73 = v69 + v72;
        arg2[v6][(v26 + 1)] = v73;
      }
      if (((v6 * -1) + 3) >= 0) {
        float v76 = arg2[v6][v26];
        float v77 = arg1[4][v6];
        float v78 = arg2[4][v26];
        float v79 = v77 * v78;
        float v80 = v76 + v79;
        arg2[v6][v26] = v80;
      }
      if (((v6 * -1) + 3) >= 0) {
        float v83 = arg2[v6][(v26 + 1)];
        float v84 = arg1[4][v6];
        float v85 = arg2[4][(v26 + 1)];
        float v86 = v84 * v85;
        float v87 = v83 + v86;
        arg2[v6][(v26 + 1)] = v87;
      }
      if (((v6 * -1) + 4) >= 0) {
        float v90 = arg2[v6][v26];
        float v91 = arg1[5][v6];
        float v92 = arg2[5][v26];
        float v93 = v91 * v92;
        float v94 = v90 + v93;
        arg2[v6][v26] = v94;
      }
      if (((v6 * -1) + 4) >= 0) {
        float v97 = arg2[v6][(v26 + 1)];
        float v98 = arg1[5][v6];
        float v99 = arg2[5][(v26 + 1)];
        float v100 = v98 * v99;
        float v101 = v97 + v100;
        arg2[v6][(v26 + 1)] = v101;
      }
      if (((v6 * -1) + 5) >= 0) {
        float v104 = arg2[v6][v26];
        float v105 = arg1[6][v6];
        float v106 = arg2[6][v26];
        float v107 = v105 * v106;
        float v108 = v104 + v107;
        arg2[v6][v26] = v108;
      }
      if (((v6 * -1) + 5) >= 0) {
        float v111 = arg2[v6][(v26 + 1)];
        float v112 = arg1[6][v6];
        float v113 = arg2[6][(v26 + 1)];
        float v114 = v112 * v113;
        float v115 = v111 + v114;
        arg2[v6][(v26 + 1)] = v115;
      }
      if (((v6 * -1) + 6) >= 0) {
        float v118 = arg2[v6][v26];
        float v119 = arg1[7][v6];
        float v120 = arg2[7][v26];
        float v121 = v119 * v120;
        float v122 = v118 + v121;
        arg2[v6][v26] = v122;
      }
      if (((v6 * -1) + 6) >= 0) {
        float v125 = arg2[v6][(v26 + 1)];
        float v126 = arg1[7][v6];
        float v127 = arg2[7][(v26 + 1)];
        float v128 = v126 * v127;
        float v129 = v125 + v128;
        arg2[v6][(v26 + 1)] = v129;
      }
      if (((v6 * -1) + 7) >= 0) {
        float v132 = arg2[v6][v26];
        float v133 = arg1[8][v6];
        float v134 = arg2[8][v26];
        float v135 = v133 * v134;
        float v136 = v132 + v135;
        arg2[v6][v26] = v136;
      }
      if (((v6 * -1) + 7) >= 0) {
        float v139 = arg2[v6][(v26 + 1)];
        float v140 = arg1[8][v6];
        float v141 = arg2[8][(v26 + 1)];
        float v142 = v140 * v141;
        float v143 = v139 + v142;
        arg2[v6][(v26 + 1)] = v143;
      }
      if (((v6 * -1) + 8) >= 0) {
        float v146 = arg2[v6][v26];
        float v147 = arg1[9][v6];
        float v148 = arg2[9][v26];
        float v149 = v147 * v148;
        float v150 = v146 + v149;
        arg2[v6][v26] = v150;
      }
      if (((v6 * -1) + 8) >= 0) {
        float v153 = arg2[v6][(v26 + 1)];
        float v154 = arg1[9][v6];
        float v155 = arg2[9][(v26 + 1)];
        float v156 = v154 * v155;
        float v157 = v153 + v156;
        arg2[v6][(v26 + 1)] = v157;
      }
      if (((v6 * -1) + 9) >= 0) {
        float v160 = arg2[v6][v26];
        float v161 = arg1[10][v6];
        float v162 = arg2[10][v26];
        float v163 = v161 * v162;
        float v164 = v160 + v163;
        arg2[v6][v26] = v164;
      }
      if (((v6 * -1) + 9) >= 0) {
        float v167 = arg2[v6][(v26 + 1)];
        float v168 = arg1[10][v6];
        float v169 = arg2[10][(v26 + 1)];
        float v170 = v168 * v169;
        float v171 = v167 + v170;
        arg2[v6][(v26 + 1)] = v171;
      }
      if (((v6 * -1) + 10) >= 0) {
        float v174 = arg2[v6][v26];
        float v175 = arg1[11][v6];
        float v176 = arg2[11][v26];
        float v177 = v175 * v176;
        float v178 = v174 + v177;
        arg2[v6][v26] = v178;
      }
      if (((v6 * -1) + 10) >= 0) {
        float v181 = arg2[v6][(v26 + 1)];
        float v182 = arg1[11][v6];
        float v183 = arg2[11][(v26 + 1)];
        float v184 = v182 * v183;
        float v185 = v181 + v184;
        arg2[v6][(v26 + 1)] = v185;
      }
      if (((v6 * -1) + 11) >= 0) {
        float v188 = arg2[v6][v26];
        float v189 = arg1[12][v6];
        float v190 = arg2[12][v26];
        float v191 = v189 * v190;
        float v192 = v188 + v191;
        arg2[v6][v26] = v192;
      }
      if (((v6 * -1) + 11) >= 0) {
        float v195 = arg2[v6][(v26 + 1)];
        float v196 = arg1[12][v6];
        float v197 = arg2[12][(v26 + 1)];
        float v198 = v196 * v197;
        float v199 = v195 + v198;
        arg2[v6][(v26 + 1)] = v199;
      }
      if (((v6 * -1) + 12) >= 0) {
        float v202 = arg2[v6][v26];
        float v203 = arg1[13][v6];
        float v204 = arg2[13][v26];
        float v205 = v203 * v204;
        float v206 = v202 + v205;
        arg2[v6][v26] = v206;
      }
      if (((v6 * -1) + 12) >= 0) {
        float v209 = arg2[v6][(v26 + 1)];
        float v210 = arg1[13][v6];
        float v211 = arg2[13][(v26 + 1)];
        float v212 = v210 * v211;
        float v213 = v209 + v212;
        arg2[v6][(v26 + 1)] = v213;
      }
      if (((v6 * -1) + 13) >= 0) {
        float v216 = arg2[v6][v26];
        float v217 = arg1[14][v6];
        float v218 = arg2[14][v26];
        float v219 = v217 * v218;
        float v220 = v216 + v219;
        arg2[v6][v26] = v220;
      }
      if (((v6 * -1) + 13) >= 0) {
        float v223 = arg2[v6][(v26 + 1)];
        float v224 = arg1[14][v6];
        float v225 = arg2[14][(v26 + 1)];
        float v226 = v224 * v225;
        float v227 = v223 + v226;
        arg2[v6][(v26 + 1)] = v227;
      }
      if (((v6 * -1) + 14) >= 0) {
        float v230 = arg2[v6][v26];
        float v231 = arg1[15][v6];
        float v232 = arg2[15][v26];
        float v233 = v231 * v232;
        float v234 = v230 + v233;
        arg2[v6][v26] = v234;
      }
      if (((v6 * -1) + 14) >= 0) {
        float v237 = arg2[v6][(v26 + 1)];
        float v238 = arg1[15][v6];
        float v239 = arg2[15][(v26 + 1)];
        float v240 = v238 * v239;
        float v241 = v237 + v240;
        arg2[v6][(v26 + 1)] = v241;
      }
      if (((v6 * -1) + 15) >= 0) {
        float v244 = arg2[v6][v26];
        float v245 = arg1[16][v6];
        float v246 = arg2[16][v26];
        float v247 = v245 * v246;
        float v248 = v244 + v247;
        arg2[v6][v26] = v248;
      }
      if (((v6 * -1) + 15) >= 0) {
        float v251 = arg2[v6][(v26 + 1)];
        float v252 = arg1[16][v6];
        float v253 = arg2[16][(v26 + 1)];
        float v254 = v252 * v253;
        float v255 = v251 + v254;
        arg2[v6][(v26 + 1)] = v255;
      }
      if (((v6 * -1) + 16) >= 0) {
        float v258 = arg2[v6][v26];
        float v259 = arg1[17][v6];
        float v260 = arg2[17][v26];
        float v261 = v259 * v260;
        float v262 = v258 + v261;
        arg2[v6][v26] = v262;
      }
      if (((v6 * -1) + 16) >= 0) {
        float v265 = arg2[v6][(v26 + 1)];
        float v266 = arg1[17][v6];
        float v267 = arg2[17][(v26 + 1)];
        float v268 = v266 * v267;
        float v269 = v265 + v268;
        arg2[v6][(v26 + 1)] = v269;
      }
      if (((v6 * -1) + 17) >= 0) {
        float v272 = arg2[v6][v26];
        float v273 = arg1[18][v6];
        float v274 = arg2[18][v26];
        float v275 = v273 * v274;
        float v276 = v272 + v275;
        arg2[v6][v26] = v276;
      }
      if (((v6 * -1) + 17) >= 0) {
        float v279 = arg2[v6][(v26 + 1)];
        float v280 = arg1[18][v6];
        float v281 = arg2[18][(v26 + 1)];
        float v282 = v280 * v281;
        float v283 = v279 + v282;
        arg2[v6][(v26 + 1)] = v283;
      }
      if (((v6 * -1) + 18) >= 0) {
        float v286 = arg2[v6][v26];
        float v287 = arg1[19][v6];
        float v288 = arg2[19][v26];
        float v289 = v287 * v288;
        float v290 = v286 + v289;
        arg2[v6][v26] = v290;
      }
      if (((v6 * -1) + 18) >= 0) {
        float v293 = arg2[v6][(v26 + 1)];
        float v294 = arg1[19][v6];
        float v295 = arg2[19][(v26 + 1)];
        float v296 = v294 * v295;
        float v297 = v293 + v296;
        arg2[v6][(v26 + 1)] = v297;
      }
      if (((v6 * -1) + 19) >= 0) {
        float v300 = arg2[v6][v26];
        float v301 = arg1[20][v6];
        float v302 = arg2[20][v26];
        float v303 = v301 * v302;
        float v304 = v300 + v303;
        arg2[v6][v26] = v304;
      }
      if (((v6 * -1) + 19) >= 0) {
        float v307 = arg2[v6][(v26 + 1)];
        float v308 = arg1[20][v6];
        float v309 = arg2[20][(v26 + 1)];
        float v310 = v308 * v309;
        float v311 = v307 + v310;
        arg2[v6][(v26 + 1)] = v311;
      }
      if (((v6 * -1) + 20) >= 0) {
        float v314 = arg2[v6][v26];
        float v315 = arg1[21][v6];
        float v316 = arg2[21][v26];
        float v317 = v315 * v316;
        float v318 = v314 + v317;
        arg2[v6][v26] = v318;
      }
      if (((v6 * -1) + 20) >= 0) {
        float v321 = arg2[v6][(v26 + 1)];
        float v322 = arg1[21][v6];
        float v323 = arg2[21][(v26 + 1)];
        float v324 = v322 * v323;
        float v325 = v321 + v324;
        arg2[v6][(v26 + 1)] = v325;
      }
      if (((v6 * -1) + 21) >= 0) {
        float v328 = arg2[v6][v26];
        float v329 = arg1[22][v6];
        float v330 = arg2[22][v26];
        float v331 = v329 * v330;
        float v332 = v328 + v331;
        arg2[v6][v26] = v332;
      }
      if (((v6 * -1) + 21) >= 0) {
        float v335 = arg2[v6][(v26 + 1)];
        float v336 = arg1[22][v6];
        float v337 = arg2[22][(v26 + 1)];
        float v338 = v336 * v337;
        float v339 = v335 + v338;
        arg2[v6][(v26 + 1)] = v339;
      }
      if (((v6 * -1) + 22) >= 0) {
        float v342 = arg2[v6][v26];
        float v343 = arg1[23][v6];
        float v344 = arg2[23][v26];
        float v345 = v343 * v344;
        float v346 = v342 + v345;
        arg2[v6][v26] = v346;
      }
      if (((v6 * -1) + 22) >= 0) {
        float v349 = arg2[v6][(v26 + 1)];
        float v350 = arg1[23][v6];
        float v351 = arg2[23][(v26 + 1)];
        float v352 = v350 * v351;
        float v353 = v349 + v352;
        arg2[v6][(v26 + 1)] = v353;
      }
      if (((v6 * -1) + 23) >= 0) {
        float v356 = arg2[v6][v26];
        float v357 = arg1[24][v6];
        float v358 = arg2[24][v26];
        float v359 = v357 * v358;
        float v360 = v356 + v359;
        arg2[v6][v26] = v360;
      }
      if (((v6 * -1) + 23) >= 0) {
        float v363 = arg2[v6][(v26 + 1)];
        float v364 = arg1[24][v6];
        float v365 = arg2[24][(v26 + 1)];
        float v366 = v364 * v365;
        float v367 = v363 + v366;
        arg2[v6][(v26 + 1)] = v367;
      }
      if (((v6 * -1) + 24) >= 0) {
        float v370 = arg2[v6][v26];
        float v371 = arg1[25][v6];
        float v372 = arg2[25][v26];
        float v373 = v371 * v372;
        float v374 = v370 + v373;
        arg2[v6][v26] = v374;
      }
      if (((v6 * -1) + 24) >= 0) {
        float v377 = arg2[v6][(v26 + 1)];
        float v378 = arg1[25][v6];
        float v379 = arg2[25][(v26 + 1)];
        float v380 = v378 * v379;
        float v381 = v377 + v380;
        arg2[v6][(v26 + 1)] = v381;
      }
      if (((v6 * -1) + 25) >= 0) {
        float v384 = arg2[v6][v26];
        float v385 = arg1[26][v6];
        float v386 = arg2[26][v26];
        float v387 = v385 * v386;
        float v388 = v384 + v387;
        arg2[v6][v26] = v388;
      }
      if (((v6 * -1) + 25) >= 0) {
        float v391 = arg2[v6][(v26 + 1)];
        float v392 = arg1[26][v6];
        float v393 = arg2[26][(v26 + 1)];
        float v394 = v392 * v393;
        float v395 = v391 + v394;
        arg2[v6][(v26 + 1)] = v395;
      }
      if (((v6 * -1) + 26) >= 0) {
        float v398 = arg2[v6][v26];
        float v399 = arg1[27][v6];
        float v400 = arg2[27][v26];
        float v401 = v399 * v400;
        float v402 = v398 + v401;
        arg2[v6][v26] = v402;
      }
      if (((v6 * -1) + 26) >= 0) {
        float v405 = arg2[v6][(v26 + 1)];
        float v406 = arg1[27][v6];
        float v407 = arg2[27][(v26 + 1)];
        float v408 = v406 * v407;
        float v409 = v405 + v408;
        arg2[v6][(v26 + 1)] = v409;
      }
      if (((v6 * -1) + 27) >= 0) {
        float v412 = arg2[v6][v26];
        float v413 = arg1[28][v6];
        float v414 = arg2[28][v26];
        float v415 = v413 * v414;
        float v416 = v412 + v415;
        arg2[v6][v26] = v416;
      }
      if (((v6 * -1) + 27) >= 0) {
        float v419 = arg2[v6][(v26 + 1)];
        float v420 = arg1[28][v6];
        float v421 = arg2[28][(v26 + 1)];
        float v422 = v420 * v421;
        float v423 = v419 + v422;
        arg2[v6][(v26 + 1)] = v423;
      }
      if (((v6 * -1) + 28) >= 0) {
        float v426 = arg2[v6][v26];
        float v427 = arg1[29][v6];
        float v428 = arg2[29][v26];
        float v429 = v427 * v428;
        float v430 = v426 + v429;
        arg2[v6][v26] = v430;
      }
      if (((v6 * -1) + 28) >= 0) {
        float v433 = arg2[v6][(v26 + 1)];
        float v434 = arg1[29][v6];
        float v435 = arg2[29][(v26 + 1)];
        float v436 = v434 * v435;
        float v437 = v433 + v436;
        arg2[v6][(v26 + 1)] = v437;
      }
      if (((v6 * -1) + 29) >= 0) {
        float v440 = arg2[v6][v26];
        float v441 = arg1[30][v6];
        float v442 = arg2[30][v26];
        float v443 = v441 * v442;
        float v444 = v440 + v443;
        arg2[v6][v26] = v444;
      }
      if (((v6 * -1) + 29) >= 0) {
        float v447 = arg2[v6][(v26 + 1)];
        float v448 = arg1[30][v6];
        float v449 = arg2[30][(v26 + 1)];
        float v450 = v448 * v449;
        float v451 = v447 + v450;
        arg2[v6][(v26 + 1)] = v451;
      }
      if (((v6 * -1) + 30) >= 0) {
        float v454 = arg2[v6][v26];
        float v455 = arg1[31][v6];
        float v456 = arg2[31][v26];
        float v457 = v455 * v456;
        float v458 = v454 + v457;
        arg2[v6][v26] = v458;
      }
      float v459 = arg2[v6][v26];
      float v460 = a0 * v459;
      arg2[v6][v26] = v460;
      if (((v6 * -1) + 30) >= 0) {
        float v461 = arg2[v6][(v26 + 1)];
        float v462 = arg1[31][v6];
        float v463 = arg2[31][(v26 + 1)];
        float v464 = v462 * v463;
        float v465 = v461 + v464;
        arg2[v6][(v26 + 1)] = v465;
      }
      float v466 = arg2[v6][(v26 + 1)];
      float v467 = a0 * v466;
      arg2[v6][(v26 + 1)] = v467;
    }
  }
}

